#pragma once
// Thread-safe serving metrics for the §6.3 deployment path: request and
// batch counters, the executed batch sizes, the §7.1 QoI-fallback tally,
// per-phase latency percentiles over the §7.3 online breakdown (fetch /
// encode / load / run), and the reliability-layer counters (injected faults
// by kind, retries, deadline misses, shutdown rejections, circuit-breaker
// fallbacks and state transitions — docs/RELIABILITY.md).
//
// A view over one obs metrics registry (docs/OBSERVABILITY.md): every fact
// is recorded once, as a lock-free obs::Counter or a fixed-bucket
// obs::LatencyHistogram, so memory stays constant under sustained serving,
// no recording thread ever blocks, and the exporters see every fact with
// no extra code.

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace ahn {

/// One request's modeled online phase latencies (§7.3 breakdown), seconds.
struct RequestPhases {
  double fetch = 0.0;
  double encode = 0.0;
  double load = 0.0;
  double run = 0.0;

  [[nodiscard]] double total() const noexcept { return fetch + encode + load + run; }
};

/// Immutable copy of the collector state at one point in time.
struct ServingStatsSnapshot {
  std::uint64_t requests_served = 0;
  std::uint64_t batches_executed = 0;
  std::uint64_t qoi_fallbacks = 0;
  std::uint64_t faults_injected = 0;       ///< total injector firings
  std::uint64_t retries = 0;               ///< transient-fault retry attempts
  std::uint64_t deadline_misses = 0;       ///< requests expired unserved
  std::uint64_t shutdown_rejections = 0;   ///< requests refused while draining
  std::uint64_t breaker_fallbacks = 0;     ///< requests routed to original code
                                           ///  by an open/half-open breaker

  [[nodiscard]] double mean_batch_size() const noexcept {
    return batches_executed > 0
               ? static_cast<double>(requests_served) /
                     static_cast<double>(batches_executed)
               : 0.0;
  }
};

/// Serving-side metrics collector. Every member is safe to call from any
/// client or flusher thread, and every record is lock-free. Each
/// counter/histogram read is untorn, but a snapshot taken while recorders
/// run may straddle concurrent updates by a request or two — the price of
/// never blocking the serving path.
class ServingStats {
 public:
  ServingStats()
      : requests_(registry_.counter("serving.requests_served")),
        batches_(registry_.counter("serving.batches_executed")),
        fallbacks_(registry_.counter("serving.qoi_fallbacks")),
        faults_(registry_.counter("serving.faults_injected")),
        retries_(registry_.counter("serving.retries")),
        deadline_misses_(registry_.counter("serving.deadline_misses")),
        shutdown_rejections_(registry_.counter("serving.shutdown_rejections")),
        breaker_fallbacks_(registry_.counter("serving.breaker_fallbacks")),
        batch_rows_(registry_.histogram("serving.batch_rows")),
        fetch_hist_(registry_.histogram("serving.latency.fetch")),
        encode_hist_(registry_.histogram("serving.latency.encode")),
        load_hist_(registry_.histogram("serving.latency.load")),
        run_hist_(registry_.histogram("serving.latency.run")),
        total_hist_(registry_.histogram("serving.latency.total")) {}

  ServingStats(const ServingStats&) = delete;
  ServingStats& operator=(const ServingStats&) = delete;

  /// The registry every tally and histogram lives in, for obs::export_json
  /// and for merging into a process-wide view.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return registry_;
  }

  /// Records one served request and its per-phase modeled latency. A
  /// nonzero `trace_id` stamps an exemplar on each histogram bucket the
  /// request lands in, linking scraped latency buckets to captured traces.
  void record_request(const RequestPhases& phases, std::uint64_t trace_id = 0) {
    requests_.increment();
    fetch_hist_.record(phases.fetch, trace_id);
    encode_hist_.record(phases.encode, trace_id);
    load_hist_.record(phases.load, trace_id);
    run_hist_.record(phases.run, trace_id);
    total_hist_.record(phases.total(), trace_id);
  }

  /// Records one executed batch of `size` coalesced requests (size >= 1)
  /// into the `serving.batch_rows` histogram. Its count, sum, min and max
  /// are exact; its log-spaced buckets are ~12% wide, so every size up to 9
  /// gets a bucket of its own.
  void record_batch(std::size_t size) {
    batches_.increment();
    batch_rows_.record(static_cast<double>(size));
  }

  /// Records a §7.1 QoI miss that re-ran the original code region.
  void record_qoi_fallback() { fallbacks_.increment(); }

  /// Records one injected fault of `kind` ("latency_spike", "transient",
  /// "nan_corruption", "batch_drop").
  void record_fault_injected(const std::string& kind) {
    faults_.increment();
    registry_.counter("serving.fault." + kind).increment();
  }

  /// Records one retry attempt after a transient fault.
  void record_retry() { retries_.increment(); }

  /// Records one request that expired (kDeadlineExceeded) before being served.
  void record_deadline_miss() { deadline_misses_.increment(); }

  /// Records one request refused with kShuttingDown.
  void record_shutdown_rejection() { shutdown_rejections_.increment(); }

  /// Records one request the QoI circuit breaker routed straight to the
  /// original-code path (open or exhausted half-open state).
  void record_breaker_fallback() { breaker_fallbacks_.increment(); }

  /// Records one breaker state transition, keyed "from->to". Also emits a
  /// structured log line; when the transition happens inside a serving span
  /// (batch execution, a client's admit), the line carries that trace id.
  void record_breaker_transition(const std::string& from, const std::string& to) {
    registry_.counter(transition_counter(from, to)).increment();
    AHN_INFO_C("breaker", "transition " << from << "->" << to);
  }

  [[nodiscard]] std::uint64_t requests_served() const { return requests_.value(); }
  [[nodiscard]] std::uint64_t batches_executed() const { return batches_.value(); }
  [[nodiscard]] std::uint64_t qoi_fallbacks() const { return fallbacks_.value(); }
  [[nodiscard]] std::uint64_t faults_injected() const { return faults_.value(); }
  [[nodiscard]] std::uint64_t retries() const { return retries_.value(); }
  [[nodiscard]] std::uint64_t deadline_misses() const {
    return deadline_misses_.value();
  }
  [[nodiscard]] std::uint64_t shutdown_rejections() const {
    return shutdown_rejections_.value();
  }
  [[nodiscard]] std::uint64_t breaker_fallbacks() const {
    return breaker_fallbacks_.value();
  }
  /// Count of `from`->`to` breaker transitions recorded so far. Read
  /// through a registry snapshot, so asking about a pair never recorded
  /// registers nothing and reads 0.
  [[nodiscard]] std::uint64_t breaker_transitions(const std::string& from,
                                                  const std::string& to) const {
    const obs::RegistrySnapshot snap = registry_.snapshot();
    const auto it = snap.counters.find(transition_counter(from, to));
    return it == snap.counters.end() ? 0 : it->second;
  }

  /// Latency percentile (p in [0, 100]) for one phase: "fetch", "encode",
  /// "load", "run" or "total", at bucket resolution. Returns 0 when no
  /// requests were recorded.
  [[nodiscard]] double latency_percentile(const std::string& phase, double p) const {
    const obs::LatencyHistogram* hist = phase_histogram(phase);
    AHN_CHECK_MSG(hist != nullptr, "unknown serving phase '" << phase << "'");
    return hist->percentile(p);
  }

  [[nodiscard]] ServingStatsSnapshot snapshot() const {
    ServingStatsSnapshot s;
    s.requests_served = requests_.value();
    s.batches_executed = batches_.value();
    s.qoi_fallbacks = fallbacks_.value();
    s.faults_injected = faults_.value();
    s.retries = retries_.value();
    s.deadline_misses = deadline_misses_.value();
    s.shutdown_rejections = shutdown_rejections_.value();
    s.breaker_fallbacks = breaker_fallbacks_.value();
    return s;
  }

  void reset() { registry_.reset(); }

 private:
  [[nodiscard]] static std::string transition_counter(const std::string& from,
                                                      const std::string& to) {
    return "serving.breaker_transition." + from + "->" + to;
  }

  [[nodiscard]] const obs::LatencyHistogram* phase_histogram(
      const std::string& phase) const {
    if (phase == "fetch") return &fetch_hist_;
    if (phase == "encode") return &encode_hist_;
    if (phase == "load") return &load_hist_;
    if (phase == "run") return &run_hist_;
    if (phase == "total") return &total_hist_;
    return nullptr;
  }

  obs::MetricsRegistry registry_;
  obs::Counter& requests_;
  obs::Counter& batches_;
  obs::Counter& fallbacks_;
  obs::Counter& faults_;
  obs::Counter& retries_;
  obs::Counter& deadline_misses_;
  obs::Counter& shutdown_rejections_;
  obs::Counter& breaker_fallbacks_;
  obs::LatencyHistogram& batch_rows_;
  obs::LatencyHistogram& fetch_hist_;
  obs::LatencyHistogram& encode_hist_;
  obs::LatencyHistogram& load_hist_;
  obs::LatencyHistogram& run_hist_;
  obs::LatencyHistogram& total_hist_;
};

}  // namespace ahn
