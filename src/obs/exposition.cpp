#include "obs/exposition.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/export.hpp"

namespace ahn::obs {

namespace {

bool valid_name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     c == '_' || c == ':';
  return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

/// One sample's identity: sanitized family name + normalized label pairs.
struct SampleName {
  std::string family;
  std::vector<std::pair<std::string, std::string>> labels;  // key, escaped value
};

/// Splits `serving.breaker_state{model="heat3d"}` into family + labels.
/// Names without a label block (the common case) parse as family-only; a
/// malformed block is kept readable by folding it into the family name.
SampleName parse_name(const std::string& name) {
  SampleName out;
  const std::size_t open = name.find('{');
  std::string base = name;
  if (open != std::string::npos && !name.empty() && name.back() == '}') {
    base = name.substr(0, open);
    const std::string inner = name.substr(open + 1, name.size() - open - 2);
    std::size_t pos = 0;
    while (pos < inner.size()) {
      std::size_t comma = inner.find(',', pos);
      if (comma == std::string::npos) comma = inner.size();
      const std::string pair = inner.substr(pos, comma - pos);
      pos = comma + 1;
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) continue;
      std::string value = pair.substr(eq + 1);
      if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
        value = value.substr(1, value.size() - 2);
      }
      out.labels.emplace_back(prometheus_sanitize_name(pair.substr(0, eq)),
                              prometheus_escape_label(value));
    }
  } else if (open != std::string::npos) {
    base = name;  // unbalanced block: sanitize the whole thing
  }
  out.family = prometheus_sanitize_name(base);
  return out;
}

void write_labels(std::ostream& os,
                  const std::vector<std::pair<std::string, std::string>>& labels,
                  const std::string& extra_key = {},
                  const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"" << v << '"';
  }
  if (!extra_key.empty()) {
    if (!first) os << ',';
    os << extra_key << "=\"" << extra_value << '"';
  }
  os << '}';
}

template <typename Value>
using FamilyMap =
    std::map<std::string, std::vector<std::pair<SampleName, Value>>>;

template <typename Value>
FamilyMap<Value> group_families(const std::map<std::string, Value>& metrics) {
  FamilyMap<Value> families;
  for (const auto& [name, value] : metrics) {
    SampleName sn = parse_name(name);
    families[sn.family].emplace_back(std::move(sn), value);
  }
  return families;
}

/// Curated HELP text for every family the runtime emits, keyed by exported
/// name. Built once on first use and read-only afterwards.
const std::map<std::string, std::string>& help_table() {
  static const std::map<std::string, std::string> table = [] {
    const std::pair<const char*, const char*> seed[] = {
        {"serving.requests_served", "Requests served by this orchestrator."},
        {"serving.batches_executed", "Coalesced micro-batches executed."},
        {"serving.qoi_fallbacks", "Rows re-served by the original code after a QoI miss."},
        {"serving.faults_injected", "Total injected faults (all kinds)."},
        {"serving.retries", "Retry attempts after transient faults."},
        {"serving.deadline_misses", "Requests expired (kDeadlineExceeded) before service."},
        {"serving.shutdown_rejections", "Requests refused with kShuttingDown."},
        {"serving.breaker_fallbacks", "Requests routed to original code by an open breaker."},
        {"serving.batch_queue_depth", "Rows currently pending in the batching queue."},
        {"serving.batch_rows", "Rows per executed batch (a count, not seconds)."},
        {"serving.batch_wait_seconds",
         "Measured wait of each dispatched micro-batch, first row's enqueue to dispatch."},
        {"serving.latency.fetch", "Modeled per-request fetch-phase latency (seconds)."},
        {"serving.latency.encode", "Modeled per-request encode-phase latency (seconds)."},
        {"serving.latency.load", "Modeled per-request weight-load latency (seconds)."},
        {"serving.latency.run", "Modeled per-request inference latency (seconds)."},
        {"serving.latency.total", "Modeled per-request total online latency (seconds)."},
        {"serving.model_version", "Active registry version serving this model."},
        {"serving.breaker_state", "QoI breaker state (0 closed / 1 open / 2 half-open)."},
        {"serving.rollout_state", "Rollout stage of this model's live candidate."},
        {"serving.rollout.promotions", "Rollout candidates promoted to serving."},
        {"serving.rollout.rollbacks", "Rollout candidates discarded (rolled back)."},
        {"serving.shadow.rows", "Rows double-scored while shadowing a candidate."},
        {"serving.shadow.active_qoi_miss", "Shadowed rows where the active model missed QoI."},
        {"serving.shadow.candidate_qoi_miss", "Shadowed rows where the candidate missed QoI."},
        {"serving.canary.rows", "Rows served by the canary candidate."},
        {"serving.canary.qoi_miss", "Canary-served rows that missed QoI."},
        {"serving.retrain.coalesced", "Retrain triggers coalesced into an in-flight cycle."},
        {"cluster.requests_served", "Requests served across all shards."},
        {"cluster.failovers", "Requests re-routed off a dead or draining shard."},
        {"cluster.breaker_reroutes", "Requests steered away from an open breaker."},
        {"cluster.shard_failures", "Shards marked dead (fail_shard or kill race)."},
        {"cluster.shards_alive", "Shards currently routable."},
        {"cluster.shards_total", "Shards configured in the cluster."},
        {"cluster.latency.total", "Cluster-merged per-request total latency (seconds)."},
        {"cluster.modeled_rps", "Device-bound aggregate throughput (rows/second)."},
        {"cluster.max_drift_score", "Worst per-model drift score across shards."},
        {"cluster.registry_version", "Registry fan-out epoch applied to shards."},
        {"cluster.drift_score", "Worst drift score for one model across shards."},
        {"cluster.model_version", "Cluster registry's active version of one model."},
        {"cluster.slo_burn_rate", "Worst per-shard SLO burn rate (per window)."},
        {"cluster.slo_burning", "1 when any shard's burn-rate alert condition holds."},
        {"slo.burn_rate", "Error-budget burn rate over one window (1 = on budget)."},
        {"slo.burning", "1 while the multi-window burn alert condition holds."},
        {"slo.events", "Request outcomes evaluated against this SLO."},
        {"slo.bad_events", "Outcomes that consumed error budget."},
        {"slo.alerts", "Edge-triggered slo_burn alerts raised."},
        {"http.requests_served", "HTTP requests answered by the exposition server."},
    };
    std::map<std::string, std::string> t;
    for (const auto& [name, help] : seed) t.emplace(prometheus_sanitize_name(name), help);
    return t;
  }();
  return table;
}

}  // namespace

std::string metric_help(const std::string& family) {
  const std::string key = prometheus_sanitize_name(family);
  const std::map<std::string, std::string>& table = help_table();
  const auto it = table.find(key);
  if (it != table.end()) return it->second;
  // Prefix fallbacks keep derived families (per-kind fault counters,
  // per-transition breaker counters) described without one entry each.
  if (key.rfind("serving_fault_", 0) == 0) {
    return "Injected faults of one kind (suffix) observed by the serving path.";
  }
  if (key.rfind("serving_breaker_transition_", 0) == 0) {
    return "QoI circuit-breaker state transitions of one kind (suffix).";
  }
  return "Auto-HPCnet metric; see docs/OBSERVABILITY.md for the inventory.";
}

std::string prometheus_sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    out.push_back(valid_name_char(c, i == 0) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void export_prometheus(std::ostream& os, const RegistrySnapshot& snapshot,
                       const PrometheusOptions& opts) {
  const auto head = [&os](const std::string& family, const char* type) {
    os << "# HELP " << family << ' ' << metric_help(family) << '\n';
    os << "# TYPE " << family << ' ' << type << '\n';
  };
  for (const auto& [family, samples] : group_families(snapshot.counters)) {
    head(family, "counter");
    for (const auto& [sn, value] : samples) {
      os << family;
      write_labels(os, sn.labels);
      os << ' ' << value << '\n';
    }
  }
  for (const auto& [family, samples] : group_families(snapshot.gauges)) {
    head(family, "gauge");
    for (const auto& [sn, value] : samples) {
      os << family;
      write_labels(os, sn.labels);
      os << ' ' << format_value(value) << '\n';
    }
  }
  for (const auto& [family, samples] : group_families(snapshot.histograms)) {
    head(family, "histogram");
    for (const auto& [sn, h] : samples) {
      // Cumulative buckets; empty buckets are elided (le stays increasing,
      // the running count stays monotone, the scrape stays compact).
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
        if (h.buckets[i] == 0) continue;
        cumulative += h.buckets[i];
        os << family << "_bucket";
        write_labels(os, sn.labels, "le",
                     format_value(LatencyHistogram::lower_bound(i + 1)));
        os << ' ' << cumulative;
        if (opts.exemplars && h.exemplars[i].trace_id != 0) {
          // OpenMetrics exemplar: links this bucket to one captured trace.
          os << " # {trace_id=\"" << h.exemplars[i].trace_id << "\"} "
             << format_value(h.exemplars[i].value);
        }
        os << '\n';
      }
      os << family << "_bucket";
      write_labels(os, sn.labels, "le", "+Inf");
      os << ' ' << h.count << '\n';
      os << family << "_sum";
      write_labels(os, sn.labels);
      os << ' ' << format_value(std::isfinite(h.sum) ? h.sum : 0.0) << '\n';
      os << family << "_count";
      write_labels(os, sn.labels);
      os << ' ' << h.count << '\n';
    }
  }
  if (opts.openmetrics_eof) os << "# EOF\n";
}

void export_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  export_prometheus(os, registry.snapshot());
}

std::string export_prometheus_string(const RegistrySnapshot& snapshot,
                                     const PrometheusOptions& opts) {
  std::ostringstream os;
  export_prometheus(os, snapshot, opts);
  return os.str();
}

bool export_prometheus_file(const std::string& path,
                            const RegistrySnapshot& snapshot) {
  std::ofstream out(path);
  if (!out) return false;
  export_prometheus(out, snapshot);
  out.flush();
  return static_cast<bool>(out);
}

bool export_prometheus_file(const std::string& path,
                            const MetricsRegistry& registry) {
  return export_prometheus_file(path, registry.snapshot());
}

void export_chrome_trace(std::ostream& os, const TracerSnapshot& snapshot,
                         const std::string& process_name) {
  os << "{\"traceEvents\": [\n";
  os << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \""
     << json_escape(process_name) << "\"}}";
  // Span ids are unique, so the ring doubles as a parent lookup table for
  // the cross-thread flow arrows below.
  std::map<std::uint64_t, const SpanRecord*> by_span;
  for (const SpanRecord& s : snapshot.recent) by_span[s.span_id] = &s;
  for (const SpanRecord& s : snapshot.recent) {
    os << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread_id
       << ", \"name\": \"" << json_escape(s.name)
       << "\", \"ts\": " << s.start_seconds * 1e6
       << ", \"dur\": " << s.duration_seconds * 1e6
       << ", \"args\": {\"trace_id\": " << s.trace_id
       << ", \"span_id\": " << s.span_id
       << ", \"parent_span_id\": " << s.parent_span_id << "}}";
    // A parent on a different thread gets a flow-event pair (s -> f) so the
    // viewer draws the hand-off arrow; same-thread nesting needs none. The
    // flow id is the child span id (unique per edge).
    const auto parent = s.parent_span_id != 0 ? by_span.find(s.parent_span_id)
                                              : by_span.end();
    if (parent != by_span.end() && parent->second->thread_id != s.thread_id) {
      const SpanRecord& p = *parent->second;
      // Anchor the start inside the parent span and the finish at the
      // child's start; clamp so the viewer never sees f before s.
      const double start_ts =
          std::min(p.start_seconds, s.start_seconds) * 1e6;
      const double finish_ts = std::max(s.start_seconds * 1e6, start_ts);
      os << ",\n  {\"ph\": \"s\", \"pid\": 1, \"tid\": " << p.thread_id
         << ", \"name\": \"handoff\", \"cat\": \"flow\", \"id\": " << s.span_id
         << ", \"ts\": " << start_ts << "}";
      os << ",\n  {\"ph\": \"f\", \"bp\": \"e\", \"pid\": 1, \"tid\": "
         << s.thread_id << ", \"name\": \"handoff\", \"cat\": \"flow\", \"id\": "
         << s.span_id << ", \"ts\": " << finish_ts << "}";
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::string export_chrome_trace_string(const TracerSnapshot& snapshot,
                                       const std::string& process_name) {
  std::ostringstream os;
  export_chrome_trace(os, snapshot, process_name);
  return os.str();
}

}  // namespace ahn::obs
