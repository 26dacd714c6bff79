#pragma once
// Standard-format exposition of the observability state
// (docs/OBSERVABILITY.md): Prometheus text format (v0.0.4) for any
// RegistrySnapshot, and Chrome trace-event JSON ("traceEvents") for the
// tracer's span ring — the two formats external tooling actually scrapes
// and loads.
//
// Metric names are sanitized to the Prometheus charset
// ([a-zA-Z_:][a-zA-Z0-9_:]*, '.' and other invalid characters become '_').
// A name may carry a label block — `serving.breaker_state{model="heat3d"}`
// — which is parsed and re-emitted as Prometheus labels, so per-model
// instruments registered under distinct names land in one metric family.

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ahn::obs {

/// Sanitizes a metric (or label) base name to the Prometheus charset.
[[nodiscard]] std::string prometheus_sanitize_name(const std::string& name);

/// Escapes a label value (backslash, double quote, newline).
[[nodiscard]] std::string prometheus_escape_label(const std::string& value);

/// The `# HELP` text for a family (registry-side dotted or exported name):
/// curated text for every family the runtime emits, a per-prefix text for
/// derived families, or a generic pointer at docs/OBSERVABILITY.md — every
/// family always exports with a `# HELP` line.
[[nodiscard]] std::string metric_help(const std::string& family);

/// Exposition tuning. Defaults reproduce the plain Prometheus text format
/// v0.0.4 (no exemplars — classic Prometheus parsers reject the suffix);
/// `exemplars` switches histogram bucket lines to the OpenMetrics form
/// `..._bucket{le="x"} 12 # {trace_id="7"} 3.4e-05` for scrapers that can
/// link a slow bucket to a captured trace.
struct PrometheusOptions {
  bool exemplars = false;
  bool openmetrics_eof = false;  ///< append the OpenMetrics `# EOF` terminator
};

/// Writes the snapshot in Prometheus text format: `# HELP` + `# TYPE` lines
/// per metric family, counters/gauges as single samples, histograms as
/// cumulative `_bucket{le=...}` series (monotone by construction; empty
/// buckets are elided) plus `_sum` and `_count`. Ends with a newline.
void export_prometheus(std::ostream& os, const RegistrySnapshot& snapshot,
                       const PrometheusOptions& opts = {});

/// Convenience overload snapshotting the live registry.
void export_prometheus(std::ostream& os, const MetricsRegistry& registry);

[[nodiscard]] std::string export_prometheus_string(const RegistrySnapshot& snapshot,
                                                   const PrometheusOptions& opts = {});

/// Writes the exposition to `path`; returns false (without throwing) when
/// the file cannot be opened or written.
bool export_prometheus_file(const std::string& path, const RegistrySnapshot& snapshot);
bool export_prometheus_file(const std::string& path, const MetricsRegistry& registry);

/// Writes the tracer snapshot's recent-span ring as Chrome trace-event JSON
/// ({"traceEvents": [...]}, loadable in chrome://tracing and Perfetto).
/// Every span becomes a complete ("X") event with microsecond ts/dur laid
/// out on its real thread's row (pid 1, tid = obs::current_thread_id() of
/// the finishing thread); trace/span/parent ids travel in args. For every
/// parent -> child edge that crosses threads, a flow-event pair
/// (ph "s" at the parent, ph "f" bp "e" at the child, id = child span id)
/// draws the cross-thread arrow.
void export_chrome_trace(std::ostream& os, const TracerSnapshot& snapshot,
                         const std::string& process_name = "auto-hpcnet");

[[nodiscard]] std::string export_chrome_trace_string(
    const TracerSnapshot& snapshot, const std::string& process_name = "auto-hpcnet");

}  // namespace ahn::obs
