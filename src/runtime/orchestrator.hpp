#pragma once
// In-memory inference orchestration — the reproduction of the paper's §6.3
// deployment path (SmartSim Orchestrator + RedisAI middleware): a keyed
// tensor store shared between the HPC application and the NN runtime, a
// model registry, and a lightweight client (Listing 1's API: put_tensor /
// run_model / unpack_tensor) compiled into the application.
//
// Concurrency model (docs/SERVING.md has the full contract):
//  * the tensor store is mutex-striped (ShardedTensorStore) — puts/gets on
//    different keys from many client threads do not serialize;
//  * the model registry is read-mostly (shared_mutex: concurrent lookups,
//    exclusive registration);
//  * run_model_batched coalesces single-row requests per model into one
//    batched forward (BatchingQueue), amortizing the fetch/encode/load
//    phases of the §7.3 cost breakdown across the batch;
//  * every served request is tallied in a ServingStats collector.
//
// Reliability model (docs/RELIABILITY.md has the full contract):
//  * run_model* report failures as typed Status / Result values — unknown
//    model, missing input, expired deadline, exhausted retries, shutdown —
//    instead of raw ahn::Error exceptions;
//  * transient faults are retried with exponential backoff + jitter
//    (RetryPolicy) before surfacing kTransientFailure;
//  * batched requests may carry a time budget (RequestOptions); expired
//    requests resolve kDeadlineExceeded and are never coalesced;
//  * a per-model QoI circuit breaker turns the §7.1 per-request fallback
//    into systemic degradation: a high fallback rate routes traffic
//    straight to the original-code path for a cool-down, then half-open
//    probes restore surrogate serving;
//  * drain() flushes partial batches and rejects new work with
//    kShuttingDown — every accepted request resolves, never a broken
//    promise;
//  * an optional FaultInjector makes all of the above testable.

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/serving_stats.hpp"
#include "common/status.hpp"
#include "nn/train.hpp"
#include "obs/monitor.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/batching_queue.hpp"
#include "runtime/circuit_breaker.hpp"
#include "runtime/device.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/rollout.hpp"
#include "runtime/sharded_store.hpp"
#include "tensor/tensor.hpp"

namespace ahn::runtime {

struct DeploymentPackage;  // runtime/deployment.hpp

/// A servable model: an optional feature-reduction encoder in front of the
/// trained surrogate (both execute "on device" via the device model), plus
/// the optional §7.1 quality contract. All callables must be
/// stateless/thread-safe: batched and concurrent paths invoke them from
/// multiple threads.
struct ServableModel {
  std::function<Tensor(const Tensor&)> encode;  ///< may be empty (no reduction)
  OpCounts encode_ops;                           ///< per-row encode cost
  nn::TrainedSurrogate surrogate;
  OpCounts infer_ops;                            ///< per-row inference cost

  /// §7.1 quality check for one served row (inputs: the 1 x F request row
  /// and the 1 x O surrogate output). Empty = accept everything except
  /// non-finite outputs (NaN/Inf always count as a QoI miss).
  std::function<bool(const Tensor& row_in, const Tensor& row_out)> qoi_check;

  /// The original-code path for one request row: returns the 1 x O exact
  /// result. When set, QoI misses fall back to it transparently and the
  /// circuit breaker may route entire cool-down windows through it. When
  /// empty, a QoI miss surfaces as kQoIRejected.
  std::function<Tensor(const Tensor& row_in)> fallback;
};

/// Exponential backoff + jitter for retrying kTransientFailure faults.
struct RetryPolicy {
  std::size_t max_attempts = 3;           ///< total tries (1 = no retry)
  double initial_backoff_seconds = 50e-6; ///< sleep before the first retry
  double backoff_multiplier = 2.0;        ///< growth per retry
  double jitter_fraction = 0.25;          ///< sleep in [b(1-j), b(1+j)]
};

/// Serving-side tuning knobs (defaults suit tests and small deployments).
struct OrchestratorOptions {
  std::size_t max_batch = 32;          ///< micro-batch coalescing bound
  bool batch_flusher = true;           ///< flusher thread dispatches partial batches
                                       ///  (false: call flush_batches() yourself)
  /// When true, each executed batch occupies the caller for its modeled
  /// device time (busy-wait on the §7.3 fetch+encode+load+run total). This
  /// makes wall-clock serving measurements honor the analytic accelerator
  /// model — the testbed has no real device — and is what the
  /// serving-throughput bench turns on. Off by default: the pipeline and
  /// tests want modeled time accounted, not elapsed.
  bool simulate_device_occupancy = false;

  RetryPolicy retry;                   ///< transient-fault retry budget
  CircuitBreakerOptions breaker;       ///< QoI breaker of each model with a fallback

  /// Model-health monitoring knobs (docs/OBSERVABILITY.md): input-drift
  /// detection against the deployed reference sketch, QoI trend alerting,
  /// sampling rate.
  obs::MonitorOptions monitor;

  /// Span sink for the per-request serving traces (docs/OBSERVABILITY.md).
  /// nullptr = obs::Tracer::global(); tests point this at their own tracer.
  obs::Tracer* tracer = nullptr;

  /// Head-sampling rate for the batched request path: every Nth
  /// run_model_batched call opens a root "serve.run_model_batched" span (and
  /// its batch_wait/execute/qoi children + latency exemplars follow). A call
  /// arriving with a trace already current on its thread (the cluster
  /// router) always joins that trace regardless of sampling. 0 disables
  /// head sampling; 1 traces everything (tests).
  std::size_t trace_sample_every = 16;

  /// Declarative SLOs over the served-request stream (docs/OBSERVABILITY.md).
  /// Every served row's outcome is folded into each matching spec; burn-rate
  /// gauges land in stats().metrics() and edge-triggered kSloBurn alerts in
  /// alerts(). Empty = no SLO engine overhead beyond an empty loop.
  std::vector<obs::SloSpec> slos;

  /// The time source of every time-based serving decision: breaker
  /// cool-downs, rollout stage timeouts, SLO burn windows, request
  /// deadlines and the measured batch wait. Default: steady_clock; tests
  /// inject one fake to drive them all.
  Clock clock;
};

/// Per-request options for the batched path.
struct RequestOptions {
  /// Completion budget in seconds on OrchestratorOptions::clock, counted
  /// from submission; unset = no deadline. A request whose budget runs out
  /// before its batch dispatches resolves kDeadlineExceeded and is not
  /// coalesced; a budget <= 0 resolves so at once.
  std::optional<double> timeout_seconds;

  /// Convenience: a deadline `seconds` from submission.
  [[nodiscard]] static RequestOptions within(double seconds) {
    RequestOptions o;
    o.timeout_seconds = seconds;
    return o;
  }
};

/// The keyed tensor store + versioned model registry (one per "experiment").
/// Thread-safety: fully thread-safe — any mix of clients may call any member
/// concurrently (striped store, shared_mutex registry, locked queues).
///
/// Model versioning (docs/RETRAINING.md): set_model()/deploy() publish a new
/// version and promote it immediately; install_candidate()/begin_rollout()
/// publish without promoting and shadow/canary-evaluate the candidate on
/// live traffic, promoting (or discarding) it atomically via the rollout
/// state machine. Serving always reads the registry's active version.
class Orchestrator : public RolloutHost {
 public:
  explicit Orchestrator(DeviceModel device = DeviceModel{},
                        OrchestratorOptions opts = OrchestratorOptions{});
  ~Orchestrator() override;

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  void put_tensor(const std::string& key, Tensor value);
  [[nodiscard]] Tensor get_tensor(const std::string& key) const;
  [[nodiscard]] bool has_tensor(const std::string& key) const;
  void delete_tensor(const std::string& key);

  /// Publishes `model` as a new version of `name` and promotes it
  /// immediately (no rollout evaluation — the trusted-deploy path).
  void set_model(const std::string& name, std::shared_ptr<const ServableModel> model);

  /// Registers `pkg.model` under `pkg.name` (publish + promote) and installs
  /// the training-set reference sketch on the model's health monitor, arming
  /// drift detection for every subsequently served request
  /// (docs/OBSERVABILITY.md).
  void deploy(const DeploymentPackage& pkg);
  /// Active-version lookup; throws ahn::Error for unknown names (the
  /// serving paths use the non-throwing internal lookup and report
  /// kModelUnavailable instead).
  [[nodiscard]] std::shared_ptr<const ServableModel> model(const std::string& name) const;

  /// The versioned registry behind set_model/deploy/rollouts (exposed for
  /// observability, the cluster coordinator, and tests).
  [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }

  /// Atomically makes retained version `id` the serving version and
  /// re-baselines the model's health monitor against that version's
  /// reference sketch (both decay edge-triggers re-arm — a recovered model
  /// can alert again). Returns false if the name/id is unknown.
  bool promote(const std::string& name, std::uint64_t id);

  /// Atomically restores the previous serving version (the §7.1 safety
  /// valve when a promotion goes bad) and re-baselines the monitor.
  /// Returns the version now serving, or nullopt if there is none to
  /// roll back to.
  std::optional<std::uint64_t> rollback(const std::string& name);

  // RolloutHost — the surface the Retrainer (and tests) drive. A live
  // rollout double-scores every executed batch for `name`: shadow rows
  // leave responses bitwise-unchanged; canary rows serve the candidate
  // (per-row QoI fallback still applies). With
  // RolloutOptions::auto_finalize the PASSED/FAILED verdict is applied
  // inline after the deciding batch; the cluster coordinator turns that
  // off and finalizes across shards itself.
  [[nodiscard]] std::optional<ActiveModelInfo> active_model(
      const std::string& name) const override;
  std::uint64_t install_candidate(
      const std::string& name, std::shared_ptr<const ServableModel> model,
      std::shared_ptr<const obs::FeatureSketch> reference, std::string origin) override;
  /// install_candidate with a caller-chosen version id: the cluster
  /// coordinator replicates its registry onto shards with this, so the same
  /// version carries the same id everywhere (including revive replay).
  std::uint64_t install_version(const std::string& name,
                                std::shared_ptr<const ServableModel> model,
                                std::shared_ptr<const obs::FeatureSketch> reference,
                                std::string origin, std::uint64_t explicit_id);
  Status begin_rollout(const std::string& name, std::uint64_t candidate_version,
                       RolloutOptions opts) override;
  std::optional<RolloutSnapshot> rollout_progress(const std::string& name) override;
  /// Side-effect-free "is a rollout live for name" (live entries are erased
  /// from rollouts_ when they conclude).
  [[nodiscard]] bool rollout_in_flight(const std::string& name) const override;
  [[nodiscard]] obs::MetricsRegistry* metrics_registry() override {
    return &stats_.metrics();
  }
  [[nodiscard]] obs::AlertSink& alert_sink() override { return alerts_; }
  void set_sample_hook(SampleHook hook) override;

  /// Coordinated finalization (RolloutOptions::auto_finalize off): applies
  /// the verdict an external coordinator reached — promote the candidate,
  /// or discard it and raise the rollback alert. No-op without a live
  /// rollout for `name`.
  void finalize_rollout(const std::string& name, bool promote_candidate,
                        const std::string& reason = "");

  /// Runs `name` on the tensor at `in_key`, storing the result at `out_key`.
  /// The tensor is served as one batch on the caller's thread, by the same
  /// core and §7.1 rules as a micro-batch; each online phase is recorded in
  /// stats() (the §7.3 breakdown). Returns kModelUnavailable / kNotFound /
  /// kTransientFailure / kShuttingDown, or the first failed row's status
  /// (kQoIRejected), instead of throwing; on failure `out_key` is untouched.
  [[nodiscard]] Status run_model(const std::string& name, const std::string& in_key,
                                 const std::string& out_key);

  /// Micro-batched single-row inference: bypasses the keyed store and
  /// coalesces up to OrchestratorOptions::max_batch pending rows for `name`
  /// into one batched forward. The future resolves to the (1 x outputs)
  /// result row — bitwise-identical to the row a sync run_model would
  /// store — or to a typed Status (deadline, shutdown, retry exhaustion,
  /// QoI rejection). Rows served by the original-code path (QoI fallback or
  /// an open breaker) resolve OK with the exact result.
  [[nodiscard]] std::future<Result<Tensor>> run_model_batched(
      const std::string& name, Tensor row, RequestOptions request = {});

  /// Force-drains partially filled micro-batches (see BatchingQueue::flush).
  void flush_batches();

  /// Graceful shutdown: executes every pending micro-batch and completes
  /// all subsequent run_model* calls with kShuttingDown. Every request
  /// accepted before drain() resolves with a result or a typed status.
  /// Idempotent.
  void drain();
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// every serving phase. Shared so tests can keep a handle for mid-run
  /// spec changes and fault accounting.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);
  [[nodiscard]] std::shared_ptr<FaultInjector> fault_injector() const;

  /// The QoI circuit breaker for `name` (created on first use; one per
  /// model). Exposed for observability and tests.
  [[nodiscard]] CircuitBreaker& breaker(const std::string& name);

  /// The health monitor for `name` (created on first use; one per model).
  /// The serving paths feed it sampled inputs and QoI outcomes; deploy()
  /// seeds its drift reference.
  [[nodiscard]] obs::ModelMonitor& monitor(const std::string& name);

  /// Point-in-time health of one model: drift score, QoI trend, alert and
  /// retrain-recommended flags (from the monitor) plus breaker state/trips
  /// and total-latency percentiles (from this orchestrator's breaker map
  /// and stats).
  [[nodiscard]] obs::ModelHealth model_health(const std::string& name);

  /// The alert fan-out every model monitor (and breaker hook) raises into.
  [[nodiscard]] obs::AlertSink& alerts() noexcept { return alerts_; }

  [[nodiscard]] ServingStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServingStats& stats() const noexcept { return stats_; }

  /// The span sink serving traces are recorded into (see
  /// OrchestratorOptions::tracer).
  [[nodiscard]] obs::Tracer& tracer() const noexcept { return *tracer_; }

  /// The burn-rate evaluator over OrchestratorOptions::slos (never null;
  /// empty spec list when none were configured). Exposed for the /slo
  /// endpoint, the cluster coordinator, and tests.
  [[nodiscard]] obs::SloEngine& slo_engine() noexcept { return *slo_; }

  [[nodiscard]] const DeviceModel& device() const noexcept { return device_; }
  [[nodiscard]] const OrchestratorOptions& options() const noexcept { return opts_; }

 private:
  /// The one serving core, for keyed run_model and the micro-batch executor:
  /// execute with retry, record the batch, its requests and any rollout
  /// forward, finalize every row. A null `m` fails every row
  /// kModelUnavailable. Runs at a team of one (TeamOfOne) on any thread.
  [[nodiscard]] BatchingQueue::RowResults serve(
      const std::string& name, const ServableModel* m, const Tensor& batch,
      const std::vector<obs::SpanContext>& contexts);

  /// The open-breaker route of both admission points: the original code's
  /// rows for `input` when `name`'s breaker routes there, else nullopt.
  [[nodiscard]] std::optional<Tensor> breaker_fallback(const std::string& name,
                                                       const ServableModel& m,
                                                       const Tensor& input);

  /// Fault-injection hooks, encode (optional) + batched surrogate forward,
  /// with modeled per-phase seconds for the whole batch. Returns
  /// kTransientFailure when the injector fires.
  [[nodiscard]] Result<Tensor> execute(const ServableModel& m, const Tensor& input,
                                       RequestPhases* batch_phases);

  /// execute() wrapped in RetryPolicy: transient faults are retried with
  /// exponential backoff + jitter before the failure surfaces.
  [[nodiscard]] Result<Tensor> execute_with_retry(const ServableModel& m,
                                                  const Tensor& input,
                                                  RequestPhases* batch_phases);

  /// One in-flight rollout: the candidate weights pinned for the shadow
  /// duplicate forward, the state machine, and cached metric handles (the
  /// per-row loop must not re-hash metric names).
  struct ActiveRollout {
    ActiveRollout(std::string model_name, std::uint64_t v,
                  std::shared_ptr<const ServableModel> cand, RolloutOptions opts,
                  const Clock& clock)
        : version(v),
          candidate(std::move(cand)),
          ctl(std::move(model_name), v, std::move(opts), clock) {}

    std::uint64_t version;
    std::shared_ptr<const ServableModel> candidate;
    RolloutController ctl;
    obs::Counter* shadow_rows = nullptr;
    obs::Counter* shadow_active_miss = nullptr;
    obs::Counter* shadow_candidate_miss = nullptr;
    obs::Counter* canary_rows = nullptr;
    obs::Counter* canary_miss = nullptr;
  };

  /// The live rollout for `name` (nullptr when none) — shared-lock lookup
  /// behind a lock-free "any rollout live?" fast path.
  [[nodiscard]] std::shared_ptr<ActiveRollout> find_rollout(const std::string& name);

  /// Applies a PASSED/FAILED verdict (promote / discard + alert), moves the
  /// terminal snapshot to last_rollouts_, and erases the live entry. No-op
  /// while the rollout is still deciding or when auto_finalize is off.
  void maybe_conclude_rollout(const std::string& name, ActiveRollout& ro);

  /// The shared promote-or-discard body behind maybe_conclude_rollout and
  /// finalize_rollout.
  void conclude_rollout(const std::string& name, ActiveRollout& ro,
                        bool promote_candidate, const std::string& reason);

  /// Retires the live rollout entry for `name` (terminal snapshot kept for
  /// rollout_progress; rollout_state gauge updated).
  void clear_rollout(const std::string& name, const ActiveRollout& ro);

  /// Per-row QoI check + fallback + breaker outcome for one executed batch.
  /// With a live rollout, `ro`/`cand_out` carry the candidate's duplicate
  /// forward: shadow rows are double-scored (response untouched), canary
  /// rows are served from the candidate output. `contexts` (one per row, or
  /// empty) parents each row's qoi_fallback span under its submitting
  /// request; `per_row_seconds` (the amortized batch latency) feeds the SLO
  /// engine's per-outcome stream.
  [[nodiscard]] BatchingQueue::RowResults finalize_batch(
      const std::string& name, const ServableModel& m, const Tensor& batch,
      const Tensor& out, ActiveRollout* ro, const Tensor* cand_out,
      const std::vector<obs::SpanContext>& contexts, double per_row_seconds);

  BatchingQueue& batches();

  DeviceModel device_;
  OrchestratorOptions opts_;
  obs::Tracer* tracer_;  ///< never null (defaults to the global tracer)
  ServingStats stats_;

  ShardedTensorStore tensors_;
  ModelRegistry registry_;

  // Rollout bookkeeping. rollouts_live_ is the lock-free fast path the
  // batch executor checks before touching the map; last_rollouts_ keeps the
  // terminal snapshot per name so rollout_progress outlives conclusion.
  // Lock order: a breaker's on_transition hook (under the breaker mutex)
  // takes rollouts_mu_ shared then the controller mutex — never hold the
  // controller mutex while calling into a breaker.
  mutable std::shared_mutex rollouts_mu_;
  std::unordered_map<std::string, std::shared_ptr<ActiveRollout>> rollouts_;
  std::unordered_map<std::string, RolloutSnapshot> last_rollouts_;
  std::atomic<std::size_t> rollouts_live_{0};

  // Sampled-row observer (the Retrainer's reservoir feed). Copied once per
  // executed batch; fed per served row.
  mutable std::mutex hook_mu_;
  SampleHook sample_hook_;
  std::atomic<bool> hook_set_{false};

  std::atomic<bool> draining_{false};

  mutable std::mutex injector_mu_;
  std::shared_ptr<FaultInjector> injector_;

  std::mutex retry_mu_;
  Rng retry_rng_{0x5eedULL};  ///< backoff jitter (deterministic per orchestrator)

  std::mutex breakers_mu_;
  std::unordered_map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;

  // Model-health layer. Lock order: breakers_mu_ may be held while
  // monitors_mu_ is taken (breaker creation wires its monitor hook), never
  // the reverse — monitor code does not call into breakers.
  obs::AlertSink alerts_;
  std::mutex monitors_mu_;
  std::unordered_map<std::string, std::unique_ptr<obs::ModelMonitor>> monitors_;

  /// Burn-rate evaluation over opts_.slos (constructed after alerts_ and
  /// stats_, which it feeds into). Never null.
  std::unique_ptr<obs::SloEngine> slo_;

  /// Head-sampling counter for the batched trace path.
  std::atomic<std::uint64_t> trace_ticker_{0};

  // The batching queue is created on first use so sync-only users (most
  // tests, the pipeline) never spawn threads. Destruction order matters: it
  // is destroyed first, joining its flusher while the store and registry
  // above are still alive.
  std::once_flag batches_once_;
  std::unique_ptr<BatchingQueue> batches_;
};

/// Listing 1's application-side client.
/// Thread-safety: as safe as the Orchestrator it wraps — stateless itself;
/// one Client may be shared, or cheaply created per thread.
class Client {
 public:
  explicit Client(Orchestrator& orc) noexcept : orc_(&orc) {}

  void put_tensor(const std::string& key, Tensor value) {
    orc_->put_tensor(key, std::move(value));
  }

  Status run_model(const std::string& name, const std::string& in_key,
                   const std::string& out_key) {
    return orc_->run_model(name, in_key, out_key);
  }

  /// Micro-batched single-row inference (see Orchestrator::run_model_batched).
  [[nodiscard]] std::future<Result<Tensor>> run_model_batched(
      const std::string& name, Tensor row, RequestOptions request = {}) {
    return orc_->run_model_batched(name, std::move(row), request);
  }

  [[nodiscard]] Tensor unpack_tensor(const std::string& key) const {
    return orc_->get_tensor(key);
  }

 private:
  Orchestrator* orc_;
};

}  // namespace ahn::runtime
