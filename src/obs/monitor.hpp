#pragma once
// Continuous model-health monitoring (docs/OBSERVABILITY.md): detect a
// surrogate going bad *while it serves*, not at bench exit. Three pieces:
//
//  * FeatureSketch — a bounded streaming summary of a feature distribution:
//    per-feature count / mean / variance (Welford) plus P²-style decile
//    estimates. Fitted over the training set at deployment time (the
//    reference) and over sampled live inputs at serve time. Memory is fixed
//    per feature regardless of how many rows it absorbs.
//  * DriftDetector — compares live inputs against a reference sketch and
//    produces a per-model drift score: per feature, the standardized mean
//    shift |mu_live - mu_ref| / sigma_ref plus a PSI-style divergence over
//    the reference's decile buckets; the model score is the worst feature.
//  * QoI/alerting — RateTrend (EWMA + sliding miss rate), AlertSink
//    (threshold-crossing alerts to a callback + the structured log), and
//    ModelMonitor, the per-model aggregate the Orchestrator feeds and the
//    ModelHealth snapshot is read from.
//
// Hot-path rule (same as the rest of src/obs): recording never blocks the
// serving path. ModelMonitor::record_request is lock-free for unsampled
// rows (atomic counters + a CAS'd EWMA); only sampled rows (1 in
// `sample_every`, default 16) take the monitor mutex to update the sketch,
// the sliding window, and the alert edge-triggers. All state is bounded —
// nothing grows with traffic.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace ahn::obs {

/// Streaming single-quantile estimator (Jain & Chlamtac's P² algorithm):
/// five markers track the target quantile in O(1) time and memory per
/// observation. Exact for the first five samples, within marker resolution
/// after. Not thread-safe; owners lock.
class P2Quantile {
 public:
  explicit P2Quantile(double p = 0.5);

  void observe(double v);
  /// Current estimate (0 when no samples yet).
  [[nodiscard]] double value() const;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  double p_;
  std::uint64_t count_ = 0;
  std::array<double, 5> heights_{};    ///< marker heights (first 5: raw samples)
  std::array<double, 5> positions_{};  ///< marker positions (1-based)
};

/// One feature's streaming summary.
struct FeatureSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Decile estimates q10..q90 (P² resolution; exact below 5 samples).
  std::array<double, 9> deciles{};
};

/// Bounded streaming sketch of a feature distribution: per feature, Welford
/// count/mean/variance, min/max, and nine P² decile estimators. The feature
/// width is fixed by the first observed row (or the constructor) and every
/// later row must match. Copyable value type; not internally synchronized.
class FeatureSketch {
 public:
  static constexpr std::size_t kDeciles = 9;

  FeatureSketch() = default;
  explicit FeatureSketch(std::size_t features);

  /// Folds one row (one value per feature) into the sketch.
  void observe(std::span<const double> row);

  [[nodiscard]] std::size_t features() const noexcept { return features_.size(); }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

  [[nodiscard]] double mean(std::size_t f) const;
  [[nodiscard]] double stddev(std::size_t f) const;
  /// Decile `i` in [0, 9): the (i+1)*10th percentile estimate.
  [[nodiscard]] double decile(std::size_t f, std::size_t i) const;
  [[nodiscard]] FeatureSummary summary(std::size_t f) const;

 private:
  struct PerFeature {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;  ///< Welford sum of squared deviations
    double min = 0.0;
    double max = 0.0;
    std::array<P2Quantile, kDeciles> deciles;

    PerFeature();
  };

  std::vector<PerFeature> features_;
  std::uint64_t rows_ = 0;
};

struct DriftOptions {
  /// No drift is reported before this many live rows have been observed —
  /// a handful of samples says nothing about a distribution.
  std::uint64_t min_samples = 64;
};

/// One feature's drift against the reference.
struct FeatureDrift {
  double mean_shift = 0.0;  ///< |mu_live - mu_ref| / sigma_ref
  double psi = 0.0;         ///< PSI over the reference decile buckets

  [[nodiscard]] double score() const noexcept { return mean_shift + psi; }
};

struct DriftReport {
  std::uint64_t live_rows = 0;
  std::vector<FeatureDrift> features;
  double score = 0.0;               ///< max feature score (0 below min_samples)
  std::size_t worst_feature = 0;
};

/// Live-side covariate-drift detector. Construction captures the reference
/// sketch's per-feature mean/stddev and decile edges; observe() then keeps a
/// fixed-size live summary (Welford + counts in the 10 reference-decile
/// buckets). report() scores the divergence. Not internally synchronized.
class DriftDetector {
 public:
  explicit DriftDetector(std::shared_ptr<const FeatureSketch> reference,
                         DriftOptions opts = DriftOptions{});

  void observe(std::span<const double> row);

  [[nodiscard]] DriftReport report() const;
  [[nodiscard]] std::uint64_t live_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return live_.size(); }

 private:
  struct LiveFeature {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double ref_mean = 0.0;
    double ref_sigma = 0.0;
    std::array<double, FeatureSketch::kDeciles> edges{};   ///< reference deciles
    std::array<std::uint64_t, FeatureSketch::kDeciles + 1> buckets{};
  };

  DriftOptions opts_;
  std::vector<LiveFeature> live_;
  std::uint64_t rows_ = 0;
};

struct TrendOptions {
  double ewma_alpha = 0.05;        ///< per-observation EWMA weight
  std::size_t window = 256;        ///< sliding-rate window (observations)
  std::uint64_t min_samples = 32;  ///< no alerting before this many outcomes
};

/// Windowed event-rate monitor: an exponentially weighted moving average of
/// a boolean event stream plus a sliding-window rate. record() is lock-free
/// (atomic counters, CAS'd EWMA); the window ring is only touched through
/// record_windowed(), which owners call under their own lock.
class RateTrend {
 public:
  explicit RateTrend(TrendOptions opts = TrendOptions{});

  /// Lock-free: folds one outcome into the EWMA and the totals.
  void record(bool event) noexcept;

  /// Advances the sliding window only (record() handles EWMA/totals). NOT
  /// thread-safe — callers serialize (ModelMonitor calls this under its
  /// mutex for sampled rows, so the window is a rate over sampled outcomes).
  void record_window(bool event) noexcept;

  /// Forgets all history (EWMA, totals, window). The atomic pieces reset
  /// safely against concurrent record(); the window ring is owner-locked
  /// like record_window. Used when the model behind the trend is replaced.
  void reset() noexcept;

  [[nodiscard]] double ewma() const noexcept {
    return ewma_.load(std::memory_order_relaxed);
  }
  /// Event rate over the sliding window (0 when the window is empty).
  [[nodiscard]] double window_rate() const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  TrendOptions opts_;
  std::atomic<double> ewma_{0.0};
  std::atomic<bool> seeded_{false};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> events_{0};

  std::vector<bool> ring_;  ///< guarded by the owner's lock (record_windowed)
  std::size_t ring_next_ = 0;
  std::atomic<std::size_t> ring_count_{0};
  std::atomic<std::size_t> ring_events_{0};
};

enum class AlertKind {
  kDriftDetected = 0,
  kQoiDegraded,
  kBreakerOpen,
  kRolloutRolledBack,
  kSloBurn,
};

/// Number of AlertKind values (sizes the per-kind tally array).
inline constexpr std::size_t kAlertKinds = 5;

[[nodiscard]] constexpr const char* alert_kind_name(AlertKind k) noexcept {
  switch (k) {
    case AlertKind::kDriftDetected: return "drift_detected";
    case AlertKind::kQoiDegraded: return "qoi_degraded";
    case AlertKind::kBreakerOpen: return "breaker_open";
    case AlertKind::kRolloutRolledBack: return "rollout_rolled_back";
    case AlertKind::kSloBurn: return "slo_burn";
  }
  return "unknown";
}

struct Alert {
  AlertKind kind = AlertKind::kDriftDetected;
  std::string model;
  double value = 0.0;      ///< the observed quantity (score, rate, ...)
  double threshold = 0.0;  ///< the limit it crossed
  std::string message;
  std::uint64_t sequence = 0;  ///< stamped by the sink, monotone per sink
};

/// Threshold-crossing alert fan-out: every raised alert is stamped, written
/// to the structured log (Warn level, component "health", so the line
/// carries the active trace id), delivered to every subscribed callback, and
/// kept in a bounded ring of recent alerts. Thread-safe; callbacks run
/// outside the sink lock and must not block for long.
class AlertSink {
 public:
  using Callback = std::function<void(const Alert&)>;

  explicit AlertSink(std::size_t ring_capacity = 64);
  AlertSink(const AlertSink&) = delete;
  AlertSink& operator=(const AlertSink&) = delete;

  /// Appends a subscriber (the Retrainer, the cluster's alert fan-in);
  /// every raised alert reaches every subscriber, in subscription order.
  void add_callback(Callback cb);

  void raise(Alert alert);

  /// Oldest-first copy of the retained alerts (at most the ring capacity).
  [[nodiscard]] std::vector<Alert> recent() const;
  [[nodiscard]] std::uint64_t raised_total() const noexcept {
    return raised_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t raised(AlertKind kind) const noexcept {
    return by_kind_[static_cast<std::size_t>(kind)].load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Callback> callbacks_;
  std::vector<Alert> ring_;
  std::size_t ring_next_ = 0;
  std::atomic<std::uint64_t> raised_{0};
  std::array<std::atomic<std::uint64_t>, kAlertKinds> by_kind_{};
};

struct MonitorOptions {
  /// 1 in `sample_every` request rows is folded into the live sketch (and
  /// the sliding QoI window). 1 = every row.
  std::uint64_t sample_every = 16;
  /// The drift score is recomputed every this many *sampled* rows.
  std::uint64_t drift_check_every = 16;
  /// Model drift score at or above this raises `drift_detected`.
  double drift_threshold = 2.0;
  /// QoI-miss EWMA at or above this raises `qoi_degraded`.
  double qoi_alert_rate = 0.3;
  DriftOptions drift;
  TrendOptions qoi_trend;
};

/// Point-in-time health of one served model. The monitor fills the drift and
/// QoI fields; the Orchestrator adds breaker state and latency percentiles
/// when assembling its ModelHealth view.
struct ModelHealth {
  std::string model;
  std::uint64_t requests_observed = 0;  ///< rows fed to the monitor
  std::uint64_t rows_sampled = 0;       ///< rows folded into the live sketch
  bool has_reference = false;           ///< a training-set sketch is installed

  double drift_score = 0.0;
  std::size_t drift_worst_feature = 0;
  bool drift_alert = false;  ///< score currently at/above the threshold

  double qoi_miss_ewma = 0.0;
  double qoi_miss_window_rate = 0.0;
  bool qoi_alert = false;

  std::string breaker_state = "closed";  ///< filled by the Orchestrator
  std::uint64_t breaker_trips = 0;

  double latency_p50 = 0.0;  ///< filled by the Orchestrator (seconds)
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;

  /// The monitor's verdict that the surrogate should be retrained: live
  /// inputs have drifted from the training distribution and/or the QoI miss
  /// trend is degraded.
  bool retrain_recommended = false;
};

/// Per-model health monitor: the reference/live sketch pair, the QoI miss
/// trend, and the edge-triggered alert state. Thread-safe; built to be fed
/// from the serving hot path (see the header comment for the locking rule).
class ModelMonitor {
 public:
  ModelMonitor(std::string model, MonitorOptions opts, AlertSink* alerts);
  ModelMonitor(const ModelMonitor&) = delete;
  ModelMonitor& operator=(const ModelMonitor&) = delete;

  /// Installs (or replaces) the training-set reference sketch and resets the
  /// live drift state, the QoI trend, and both alert edge-triggers: the
  /// served model changed, so decay evidence against the old one is void and
  /// a recovered model can alert again on a *second* drift episode.
  void set_reference(std::shared_ptr<const FeatureSketch> reference);

  /// Re-baselines against the reference already installed: fresh
  /// DriftDetector, cleared QoI trend, re-armed edge-triggers. The promote
  /// path uses this when the incoming version carries no new sketch.
  void rebaseline();

  /// One served request row + its QoI outcome. Lock-free unless this row is
  /// sampled.
  void record_request(std::span<const double> row, bool qoi_ok);

  /// The orchestrator's breaker hook: raises a `breaker_open` alert.
  void record_breaker_open(double window_fallback_rate, double trip_threshold);

  /// The monitor-owned part of the health snapshot (drift + QoI + flags).
  [[nodiscard]] ModelHealth health() const;

  [[nodiscard]] const MonitorOptions& options() const noexcept { return opts_; }

 private:
  /// Samples 1 in opts_.sample_every calls (lock-free decision).
  [[nodiscard]] bool tick_sampler() noexcept;
  /// Shared body of set_reference()/rebaseline(); caller holds mu_.
  void rebaseline_locked();
  /// Folds a sampled row into the drift sketch, re-checks the drift/QoI
  /// edge-triggers, and raises any pending alerts after unlocking. Locks.
  void observe_sampled(std::span<const double> row, bool qoi_miss);

  const std::string model_;
  const MonitorOptions opts_;
  AlertSink* alerts_;  ///< may be null (no fan-out, flags still tracked)

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> sample_ticker_{0};
  RateTrend qoi_;

  mutable std::mutex mu_;
  std::shared_ptr<const FeatureSketch> reference_;
  std::unique_ptr<DriftDetector> drift_;
  std::uint64_t rows_sampled_ = 0;
  double drift_score_ = 0.0;
  std::size_t drift_worst_feature_ = 0;
  bool drift_active_ = false;  ///< edge-trigger: alert raised, not yet recovered
  bool qoi_active_ = false;
};

}  // namespace ahn::obs
