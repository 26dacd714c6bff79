#pragma once
// Shadow → canary → promote rollout state machine (docs/RETRAINING.md): how
// a retrained candidate earns the right to replace the serving version
// without ever degrading responses.
//
//          shadow miss-rate regression / breaker trip / stage timeout
//   SHADOW ------------------------------------------------------> FAILED
//     | shadow_rows scored, candidate no worse than active + margin     |
//     v                                                                 v
//   CANARY ---- canary miss rate > max after min samples ----------> FAILED
//     | canary_rows served within budget                                |
//     v                                                                 v
//   PASSED --(host promotes)--> PROMOTED          FAILED --(host)--> ROLLED_BACK
//
// During SHADOW the candidate scores every batch in duplicate while the
// active version's outputs are returned bitwise-unchanged; during CANARY a
// configurable fraction of rows is actually served by the candidate (QoI
// fallback still applies per row, so clients never see a raw miss). PASSED
// and FAILED are decisions, not endpoints: the hosting Orchestrator (or the
// cluster coordinator, which needs every shard to agree) applies the
// promote/rollback and marks the terminal state.
//
// RolloutController is the bookkeeping core — one mutex, no references to
// serving internals — so the state machine is testable in isolation.
// RolloutHost is the narrow surface the Retrainer drives: it is implemented
// by both Orchestrator (auto-finalizing, single node) and
// ClusterOrchestrator (coordinated fan-out), which is what makes the
// retraining loop topology-agnostic.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "common/status.hpp"
#include "common/timer.hpp"

namespace ahn::obs {
class AlertSink;
class FeatureSketch;
class MetricsRegistry;
}  // namespace ahn::obs

namespace ahn::runtime {

struct ServableModel;  // runtime/orchestrator.hpp

/// Gauge values for serving.rollout_state{model=...} — keep stable.
enum class RolloutState {
  kIdle = 0,        ///< no rollout in flight
  kShadow = 1,      ///< candidate double-scores traffic, responses unchanged
  kCanary = 2,      ///< candidate serves a fraction of rows
  kPassed = 3,      ///< decided: promote (host applies it)
  kFailed = 4,      ///< decided: roll back (host applies it)
  kPromoted = 5,    ///< terminal: candidate is the active version
  kRolledBack = 6,  ///< terminal: prior version restored
};

[[nodiscard]] constexpr const char* rollout_state_name(RolloutState s) noexcept {
  switch (s) {
    case RolloutState::kIdle: return "idle";
    case RolloutState::kShadow: return "shadow";
    case RolloutState::kCanary: return "canary";
    case RolloutState::kPassed: return "passed";
    case RolloutState::kFailed: return "failed";
    case RolloutState::kPromoted: return "promoted";
    case RolloutState::kRolledBack: return "rolled_back";
  }
  return "unknown";
}

[[nodiscard]] constexpr bool rollout_terminal(RolloutState s) noexcept {
  return s == RolloutState::kPromoted || s == RolloutState::kRolledBack;
}

struct RolloutOptions {
  /// Shadow stage length: live rows double-scored before the verdict.
  std::size_t shadow_rows = 128;
  /// The candidate may miss QoI at most this much more often than the
  /// active version over the shadow window and still advance.
  double shadow_margin = 0.05;
  /// Canary stage length: rows actually served by the candidate.
  std::size_t canary_rows = 128;
  /// No canary failure verdict before this many candidate-served rows.
  std::size_t canary_min_samples = 16;
  /// Fraction of live rows the canary stage routes to the candidate.
  double canary_fraction = 0.25;
  /// Candidate QoI miss rate that fails the canary stage.
  double canary_max_miss = 0.25;
  /// A stage (shadow or canary) that cannot reach its verdict within this
  /// budget fails the rollout — a starved canary must not pin the registry
  /// forever. <= 0 disables the deadline.
  double stage_timeout_seconds = 60.0;
  /// Single-node hosts apply the PASSED/FAILED decision themselves, inline
  /// after the deciding batch. The cluster coordinator sets this false and
  /// finalizes only when every shard has decided.
  bool auto_finalize = true;
};

/// Point-in-time rollout progress (merged into health/metrics views).
struct RolloutSnapshot {
  std::string model;
  RolloutState state = RolloutState::kIdle;
  std::uint64_t candidate_version = 0;
  std::uint64_t shadow_rows = 0;
  std::uint64_t shadow_active_miss = 0;     ///< active-model QoI misses (shadow)
  std::uint64_t shadow_candidate_miss = 0;  ///< candidate QoI misses (shadow)
  std::uint64_t canary_rows = 0;            ///< rows served by the candidate
  std::uint64_t canary_miss = 0;
  std::string reason;  ///< why FAILED / ROLLED_BACK (empty otherwise)
};

/// The rollout bookkeeping core. Thread-safe (one mutex); records come from
/// batch-execution threads, poll/finalize from the Retrainer or coordinator.
class RolloutController {
 public:
  /// `clock` times the stage budgets (the hosting Orchestrator's Clock).
  RolloutController(std::string model, std::uint64_t candidate_version,
                    RolloutOptions opts, Clock clock = {});
  RolloutController(const RolloutController&) = delete;
  RolloutController& operator=(const RolloutController&) = delete;

  /// Shadow stage: one live row scored by both models. Advances to CANARY
  /// or FAILED once the shadow window fills. Returns the state after.
  RolloutState record_shadow(bool active_ok, bool candidate_ok);

  /// Canary admission for one live row: true = serve it with the candidate.
  /// Deterministic stride at canary_fraction; false outside CANARY.
  [[nodiscard]] bool admit_canary();

  /// QoI outcome of one candidate-served canary row.
  RolloutState record_canary(bool candidate_ok);

  /// The active model's breaker tripped while a rollout was in flight:
  /// fail fast, whatever the stage.
  void note_breaker_trip();

  /// Deadline check (call periodically): a stage over its time budget
  /// transitions to FAILED. Returns the state after.
  RolloutState poll();

  /// Host finalization: PASSED -> PROMOTED, or anything -> ROLLED_BACK.
  void mark_promoted();
  void mark_rolled_back(std::string reason);

  [[nodiscard]] RolloutState state() const;
  [[nodiscard]] RolloutSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t candidate_version() const noexcept {
    return candidate_version_;
  }
  [[nodiscard]] const RolloutOptions& options() const noexcept { return opts_; }

 private:
  void transition_locked(RolloutState to, std::string reason);

  const std::string model_;
  const std::uint64_t candidate_version_;
  const RolloutOptions opts_;
  const Clock clock_;

  mutable std::mutex mu_;
  RolloutState state_ = RolloutState::kShadow;
  double stage_started_ = 0.0;
  std::uint64_t shadow_rows_ = 0;
  std::uint64_t shadow_active_miss_ = 0;
  std::uint64_t shadow_candidate_miss_ = 0;
  std::uint64_t canary_rows_ = 0;
  std::uint64_t canary_miss_ = 0;
  double canary_acc_ = 0.0;  ///< fractional-stride admission accumulator
  std::string reason_;
};

/// The active version of a model as a rollout host reports it.
struct ActiveModelInfo {
  std::uint64_t version = 0;
  std::shared_ptr<const ServableModel> model;
  std::shared_ptr<const obs::FeatureSketch> reference;  ///< may be null
};

/// The narrow serving surface the Retrainer drives. Implemented by
/// Orchestrator (single node, auto-finalize) and ClusterOrchestrator
/// (replicates candidates and coordinates the verdict across shards).
class RolloutHost {
 public:
  /// Observes every monitor-sampled served row: (model, raw feature row,
  /// QoI outcome). Runs on serving threads — must be fast and non-blocking
  /// (the Retrainer's hook only folds the row into its reservoir).
  using SampleHook =
      std::function<void(const std::string& name, std::span<const double> row,
                         bool qoi_ok)>;

  virtual ~RolloutHost() = default;

  /// The version currently answering requests for `name`.
  [[nodiscard]] virtual std::optional<ActiveModelInfo> active_model(
      const std::string& name) const = 0;

  /// Registers a candidate version without serving it; returns its id.
  virtual std::uint64_t install_candidate(
      const std::string& name, std::shared_ptr<const ServableModel> model,
      std::shared_ptr<const obs::FeatureSketch> reference, std::string origin) = 0;

  /// Starts shadow-scoring `candidate_version` against live traffic.
  /// Fails (kInvalidArgument / kNotFound) if a rollout is already in
  /// flight for `name` or the version is unknown.
  virtual Status begin_rollout(const std::string& name,
                               std::uint64_t candidate_version,
                               RolloutOptions opts) = 0;

  /// Progress of the current (or most recently finished) rollout for
  /// `name`; also drives deadline checks and, for coordinated hosts, the
  /// cross-shard verdict. nullopt = no rollout ever started.
  virtual std::optional<RolloutSnapshot> rollout_progress(const std::string& name) = 0;

  /// True while a rollout for `name` is between begin_rollout and its
  /// terminal conclusion. Unlike rollout_progress this is side-effect-free
  /// (no deadline polling, no verdict driving), so the Retrainer can use it
  /// to coalesce alert storms without perturbing the rollout. Default: never
  /// in flight (hosts that do not track rollouts).
  [[nodiscard]] virtual bool rollout_in_flight(const std::string& name) const {
    (void)name;
    return false;
  }

  /// The host's metrics registry, for cross-cutting workers (the Retrainer's
  /// serving.retrain.* counters) to publish into. Default: none.
  [[nodiscard]] virtual obs::MetricsRegistry* metrics_registry() { return nullptr; }

  /// The alert fan-out retraining subscribes to.
  [[nodiscard]] virtual obs::AlertSink& alert_sink() = 0;

  /// Installs (or clears) the sampled-row observer feeding the reservoir.
  virtual void set_sample_hook(SampleHook hook) = 0;
};

}  // namespace ahn::runtime
