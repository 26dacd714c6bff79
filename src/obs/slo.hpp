#pragma once
// Declarative SLOs with multi-window burn-rate alerting
// (docs/OBSERVABILITY.md). An SloSpec states an objective over served
// requests — availability, p99-style latency-under-threshold, or
// QoI-fallback rate — and the SloEngine turns the live outcome stream into:
//
//  * per-window burn rates: windowed error rate / error budget, where the
//    error budget is 1 - objective and each window is a time-decayed EWMA
//    (irregular-interval form, tau = the window duration) over a fast
//    (default 5m), mid (1h), and slow (6h) horizon;
//  * edge-triggered `slo_burn` alerts through the shared AlertSink when the
//    multi-window condition holds (fast AND mid above the page threshold,
//    or mid AND slow above the ticket threshold — the SRE burn-rate pager
//    pattern: the slow window proves budget is really gone, the fast window
//    proves it is still burning *now*), re-armed when the condition clears;
//  * `slo.*` gauge families in a MetricsRegistry, exposition-ready and
//    mergeable across shards.
//
// Hot-path rule: record() takes one short per-spec mutex (a handful of
// double updates); there is no allocation, no map lookup, and evaluation
// (gauges + alert edges) runs only every `eval_every` observations or on an
// explicit evaluate() call. The clock is injectable so tests and benches
// drive windows deterministically (or compress 5m to 200ms).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"

namespace ahn::obs {

enum class SloKind {
  kAvailability,     ///< bad event: request failed (typed error / lost)
  kLatency,          ///< bad event: latency above threshold_seconds
  kQoiFallbackRate,  ///< bad event: row re-served by the original code
};

[[nodiscard]] constexpr const char* slo_kind_name(SloKind k) noexcept {
  switch (k) {
    case SloKind::kAvailability: return "availability";
    case SloKind::kLatency: return "latency";
    case SloKind::kQoiFallbackRate: return "qoi_fallback_rate";
  }
  return "unknown";
}

/// One service-level objective over the served-request stream.
struct SloSpec {
  std::string name;            ///< label value for slo_* families, e.g. "p99_latency"
  std::string model;           ///< restrict to one model ("" = every model)
  SloKind kind = SloKind::kAvailability;

  /// Fraction of requests that must be good (0.99 = 1% error budget). The
  /// error budget is 1 - objective; burn rate = error rate / budget.
  double objective = 0.999;
  /// kLatency only: a request slower than this is a bad event. Stating
  /// "p99 < T" as an SLO means objective=0.99 with threshold_seconds=T.
  double threshold_seconds = 0.0;

  /// Burn-rate windows (seconds). The EWMA time constants; benches and
  /// tests compress them.
  double fast_window_seconds = 300.0;    ///< 5m
  double mid_window_seconds = 3600.0;    ///< 1h
  double slow_window_seconds = 21600.0;  ///< 6h

  /// Page when burn(fast) and burn(mid) both exceed this (14.4 = the 2%-of-
  /// 30-day-budget-in-1h pager threshold).
  double page_burn_threshold = 14.4;
  /// Ticket when burn(mid) and burn(slow) both exceed this.
  double ticket_burn_threshold = 6.0;
};

/// Point-in-time verdict for one spec.
struct SloStatus {
  SloSpec spec;
  std::uint64_t events = 0;      ///< outcomes evaluated
  std::uint64_t bad_events = 0;  ///< outcomes that consumed budget
  double fast_burn = 0.0;
  double mid_burn = 0.0;
  double slow_burn = 0.0;
  bool burning = false;          ///< the multi-window alert condition holds
  std::uint64_t alerts_raised = 0;
};

/// The burn-rate evaluator. Thread-safe: record() may race from every
/// serving thread; evaluate()/status() may race with recording.
class SloEngine {
 public:
  /// `alerts` (optional) receives edge-triggered kSloBurn alerts;
  /// `registry` (optional) receives the slo_* gauge families on every
  /// evaluation; `clock` times the burn windows (the hosting Orchestrator's
  /// Clock).
  explicit SloEngine(std::vector<SloSpec> specs, AlertSink* alerts = nullptr,
                     MetricsRegistry* registry = nullptr, Clock clock = {});
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Folds one served-request outcome into every matching spec. `ok` is the
  /// request-level verdict (false = availability bad event), `qoi_fallback`
  /// marks rows the original code re-served. Every `eval_every` outcomes the
  /// engine also refreshes gauges and alert edges inline.
  void record(const std::string& model, double latency_seconds, bool ok,
              bool qoi_fallback);

  /// A request lost without a latency (dropped batch, lost shard):
  /// availability bad event; latency/fallback specs see nothing.
  void record_dropped(const std::string& model);

  /// Recomputes every spec's burn rates at the current clock, updates the
  /// slo_* gauges, and fires/clears edge-triggered alerts. Returns the
  /// per-spec statuses.
  std::vector<SloStatus> evaluate();

  /// Point-in-time statuses without forcing a gauge/alert refresh.
  [[nodiscard]] std::vector<SloStatus> status() const;

  /// The `/slo` endpoint body: a JSON array of per-spec verdicts.
  [[nodiscard]] std::string status_json() const;

  [[nodiscard]] std::size_t spec_count() const noexcept { return states_.size(); }

  /// Evaluation cadence for the inline path (default 64 observations).
  void set_eval_every(std::uint64_t n) noexcept {
    eval_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

 private:
  /// One spec's EWMA state. The three windows share one short mutex.
  struct SpecState {
    explicit SpecState(SloSpec s) : spec(std::move(s)) {}

    SloSpec spec;
    mutable std::mutex mu;
    double fast_ewma = 0.0;
    double mid_ewma = 0.0;
    double slow_ewma = 0.0;
    double last_seconds = -1.0;  ///< clock at the previous observation
    std::uint64_t events = 0;
    std::uint64_t bad = 0;
    bool burning = false;        ///< edge-trigger armed state
    std::uint64_t alerts = 0;

    // Gauge slots, resolved once when a registry is attached.
    Gauge* fast_gauge = nullptr;
    Gauge* mid_gauge = nullptr;
    Gauge* slow_gauge = nullptr;
    Gauge* burning_gauge = nullptr;
    Counter* events_counter = nullptr;
    Counter* bad_counter = nullptr;
    Counter* alerts_counter = nullptr;
  };

  /// Folds one outcome (x = 1 bad, 0 good) into a spec's windows.
  void observe(SpecState& st, double x);
  /// Burn rates of `st` decayed to `at_seconds`; caller holds st.mu.
  void burns_locked(const SpecState& st, double at_seconds, double* fast,
                    double* mid, double* slow) const;
  [[nodiscard]] SloStatus status_one(const SpecState& st, double at_seconds) const;
  void evaluate_one(SpecState& st, double at_seconds);

  std::vector<std::unique_ptr<SpecState>> states_;
  AlertSink* alerts_;
  MetricsRegistry* registry_;
  Clock clock_;
  std::atomic<std::uint64_t> ticker_{0};
  std::atomic<std::uint64_t> eval_every_{64};
};

}  // namespace ahn::obs
