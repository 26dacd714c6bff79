#pragma once
// Multi-shard serving frontend (docs/SHARDING.md): N in-process shards —
// each a full Orchestrator owning its own ShardedTensorStore, BatchingQueue,
// per-model CircuitBreakers, ModelMonitors, and one modeled accelerator —
// behind a consistent-hash ShardRouter, with:
//
//  * a replicated keyed store: put_tensor writes the key's R-shard replica
//    set (ShardRouter::owners), get_tensor reads the first alive owner, so
//    a dead shard's keys stay readable from replicas;
//  * a replicated *versioned* model registry with atomic deploy fan-out:
//    set_model / deploy / install_candidate replicate the same immutable
//    version (same version id, same drift-reference sketch) onto every
//    shard under one cluster registry lock, so any shard can serve any
//    model, a deploy is never observed half-applied between deploys, and a
//    revived shard reconciles to the cluster's registry_version exactly;
//  * coordinated rollouts (docs/RETRAINING.md): as a RolloutHost the
//    cluster fans a candidate out to every shard in shadow/canary mode
//    with auto-finalize off, merges the per-shard verdicts on each
//    rollout_progress poll, and promotes cluster-wide only when every
//    alive shard passed — any shard failing rolls the candidate back
//    everywhere;
//  * replica failover: requests route to the first alive owner; a shard
//    that is killed (fail_shard) or announces shutdown is skipped — and a
//    shard whose per-model QoI breaker is OPEN is deprioritized in favor of
//    a replica whose surrogate is still healthy;
//  * cross-shard aggregate health: cluster_health() merges the per-shard
//    MetricsRegistry snapshots (they merge associatively by design) into
//    one shard-labeled, exposition-ready RegistrySnapshot plus headline
//    aggregates (requests, pXX latency, worst drift, breaker states).
//
// Thread-safety: all public members may be called from any thread; routing
// reads take shared locks, topology/registry changes take exclusive ones.
//
// Zero-loss failover contract: fail_shard marks the shard dead (the router
// stops sending it traffic) and then drains it, so every request the dead
// shard had already accepted still resolves with a result — and a submit
// that races the kill and lands on a draining shard comes back as an
// immediately-ready kShuttingDown future, which the cluster detects and
// transparently resubmits to a replica. bench/multi_shard gates this at
// zero lost requests through a mid-run kill.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/serving_stats.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"
#include "runtime/shard_router.hpp"

namespace ahn::runtime {

struct ClusterOptions {
  std::size_t shards = 4;       ///< in-process shard (Orchestrator) count
  std::size_t replication = 2;  ///< tensor-key replica set size (>= 1)
  std::size_t vnodes = ConsistentHashRing::kDefaultVnodes;
  DeviceModel device = DeviceModel{};  ///< one modeled accelerator per shard
  OrchestratorOptions shard_opts;  ///< applied to every shard
};

/// One shard's slice of the cluster health view.
struct ShardHealth {
  std::size_t shard = 0;
  bool alive = true;
  std::uint64_t requests_served = 0;
  /// Accumulated modeled online device time (seconds) this shard's
  /// accelerator has been busy — the per-shard serving capacity spent.
  double device_seconds = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  std::map<std::string, std::string> breaker_states;  ///< model -> state
};

/// Point-in-time aggregate health of the whole cluster (docs/SHARDING.md).
struct ClusterHealth {
  std::size_t shards_total = 0;
  std::size_t shards_alive = 0;
  std::uint64_t requests_served = 0;  ///< sum across shards
  std::uint64_t failovers = 0;        ///< requests re-routed off a dead shard
  std::uint64_t breaker_reroutes = 0; ///< requests steered off an open breaker
  std::uint64_t registry_version = 0; ///< deploy fan-outs applied
  double uptime_seconds = 0.0;
  double avg_rps = 0.0;          ///< requests_served / uptime (wall)
  /// Device-bound aggregate throughput: shards serve in parallel, so the
  /// cluster finishes its work in max-over-shards device time. This is the
  /// quantity that scales with shard count (bench/multi_shard gates it).
  double modeled_rps = 0.0;
  double latency_p50 = 0.0;  ///< percentiles of the cluster-merged histogram
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double max_drift_score = 0.0;
  std::string max_drift_model;
  std::vector<ShardHealth> shards;
  /// Every per-shard metric re-labeled with shard="<id>" plus computed
  /// cluster.* aggregates — feed it straight to obs::export_prometheus /
  /// export_json.
  obs::RegistrySnapshot merged;
};

/// The multi-shard serving frontend. Thread-safe for any mix of concurrent
/// clients; shards are created at construction and live for the cluster's
/// lifetime (a failed shard's Orchestrator is only replaced on revive).
class ClusterOrchestrator : public RolloutHost {
 public:
  explicit ClusterOrchestrator(ClusterOptions opts = ClusterOptions{});
  ~ClusterOrchestrator() override;

  ClusterOrchestrator(const ClusterOrchestrator&) = delete;
  ClusterOrchestrator& operator=(const ClusterOrchestrator&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t alive_count() const { return router_.alive_count(); }
  [[nodiscard]] bool shard_alive(std::size_t i) const { return router_.alive(i); }
  /// Direct access to one shard's Orchestrator (tests, observability).
  [[nodiscard]] Orchestrator& shard(std::size_t i);
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }

  // --- replicated keyed tensor store --------------------------------------
  /// Writes `key` to every *alive* shard of its replica set (last-write-wins
  /// per shard; a dead owner misses the write and warms lazily on revive).
  void put_tensor(const std::string& key, Tensor value);
  /// Reads from the first alive owner holding the key; throws ahn::Error
  /// when no alive replica has it (matching ShardedTensorStore::get).
  [[nodiscard]] Tensor get_tensor(const std::string& key) const;
  [[nodiscard]] bool has_tensor(const std::string& key) const;
  void delete_tensor(const std::string& key);

  // --- replicated versioned model registry --------------------------------
  /// Publishes `model` as a new version and promotes it on every shard
  /// (dead ones included — registry state is replicated so a revived shard
  /// serves immediately) under one cluster registry lock; concurrent
  /// deploys serialize, so readers never observe an interleaving of two
  /// fan-outs. Shards adopt the cluster's version id verbatim.
  void set_model(const std::string& name, std::shared_ptr<const ServableModel> model);
  /// set_model plus the drift-reference fan-out (every shard's ModelMonitor
  /// gets the same training-set sketch).
  void deploy(const DeploymentPackage& pkg);
  /// The cluster's source-of-truth registry (version ids shards replicate).
  [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }
  /// Cluster-wide atomic promote/rollback: flips the active version in the
  /// cluster registry and fans the same flip out to every shard.
  bool promote(const std::string& name, std::uint64_t id);
  std::optional<std::uint64_t> rollback(const std::string& name);
  /// Monotone fan-out epoch: bumped by every registry mutation
  /// (set_model / deploy / install_candidate / promote / rollback), the
  /// value revive_shard reconciles a rebuilt shard against.
  [[nodiscard]] std::uint64_t registry_version() const;
  [[nodiscard]] std::vector<std::string> model_names() const;

  // --- coordinated rollouts (RolloutHost) ----------------------------------
  /// The cluster registry's active version of `name`.
  [[nodiscard]] std::optional<ActiveModelInfo> active_model(
      const std::string& name) const override;
  /// Publishes a candidate version cluster-wide (same id everywhere)
  /// without promoting it.
  std::uint64_t install_candidate(
      const std::string& name, std::shared_ptr<const ServableModel> model,
      std::shared_ptr<const obs::FeatureSketch> reference, std::string origin) override;
  /// Starts the candidate shadowing live traffic on every shard
  /// (auto-finalize forced off: this coordinator owns the verdict).
  Status begin_rollout(const std::string& name, std::uint64_t candidate_version,
                       RolloutOptions opts) override;
  /// Merges the per-shard rollout snapshots (summed counts, least-advanced
  /// stage) and applies the cluster verdict: every alive shard PASSED =>
  /// promote everywhere; any shard FAILED => roll back everywhere. Each
  /// call also drives the shards' stage-deadline checks.
  std::optional<RolloutSnapshot> rollout_progress(const std::string& name) override;
  /// Side-effect-free "is a cluster rollout live for name" (tracked entries
  /// stay in the registry after conclusion, flagged concluded).
  [[nodiscard]] bool rollout_in_flight(const std::string& name) const override;
  [[nodiscard]] obs::MetricsRegistry* metrics_registry() override {
    return &cluster_metrics_;
  }
  /// Cluster-merged alert stream: every shard's AlertSink forwards here.
  [[nodiscard]] obs::AlertSink& alert_sink() override { return cluster_alerts_; }
  /// Observer fed by every shard's served rows (the Retrainer's reservoir).
  void set_sample_hook(SampleHook hook) override;

  // --- serving -------------------------------------------------------------
  /// Keyed-store inference routed by `in_key`: executes on the first alive
  /// owner of `in_key` (which holds the input locally, by replication), then
  /// re-homes the result to `out_key`'s replica set. Fails over to the next
  /// owner on kNotFound / kShuttingDown.
  [[nodiscard]] Status run_model(const std::string& name, const std::string& in_key,
                                 const std::string& out_key);

  /// Micro-batched single-row inference, spread round-robin over alive
  /// shards (maximum aggregate throughput; no key affinity).
  [[nodiscard]] std::future<Result<Tensor>> run_model_batched(
      const std::string& name, Tensor row, RequestOptions request = {});

  /// Micro-batched inference with consistent-hash affinity: the request
  /// lands on `routing_key`'s first alive owner, preferring owners whose
  /// breaker for `name` is not open. Requests with the same key batch on the
  /// same shard.
  [[nodiscard]] std::future<Result<Tensor>> run_model_batched(
      const std::string& name, Tensor row, const std::string& routing_key,
      RequestOptions request = {});

  /// Force-drains partial micro-batches on every alive shard.
  void flush_batches();

  // --- failure handling ----------------------------------------------------
  /// Simulates an abrupt shard death: the router stops sending it traffic,
  /// then the shard drains so everything it had already accepted still
  /// resolves. Idempotent.
  void fail_shard(std::size_t i);
  /// Rebuilds the failed shard's Orchestrator from scratch and re-syncs the
  /// replicated registry onto it. Its store rejoins empty (replicas keep
  /// serving its keys; entries repopulate on subsequent puts).
  void revive_shard(std::size_t i);

  // --- exposition ----------------------------------------------------------
  /// Starts (idempotently) the embedded HTTP exposition server
  /// (docs/OBSERVABILITY.md) bound to 127.0.0.1:`port` (0 = ephemeral — read
  /// the real one off the returned server) serving:
  ///   /metrics — cluster-merged OpenMetrics text with exemplars + `# EOF`
  ///   /healthz — liveness JSON; 200 while >= 1 shard is alive, else 503
  ///   /slo     — per-shard SLO burn-rate verdicts as JSON
  ///   /tracez  — the tracer's recent-span ring as Chrome trace JSON
  /// The server drains on cluster destruction (before the shards it reads).
  obs::HttpServer& serve_exposition(std::uint16_t port = 0);

  // --- aggregate health -----------------------------------------------------
  [[nodiscard]] ClusterHealth cluster_health();
  /// Modeled accelerator-busy seconds accumulated by shard `i`.
  [[nodiscard]] double device_seconds(std::size_t i);
  [[nodiscard]] std::uint64_t failovers() const;
  [[nodiscard]] std::uint64_t breaker_reroutes() const;

  /// Graceful cluster shutdown: drains every shard (pending work resolves,
  /// new work is refused with kShuttingDown). Idempotent.
  void drain();

  [[nodiscard]] const ClusterOptions& options() const noexcept { return opts_; }

 private:
  /// One coordinated rollout's cluster-side bookkeeping (guarded by
  /// registry_mu_). `last` keeps the final merged snapshot after the
  /// verdict so rollout_progress outlives conclusion.
  struct ClusterRollout {
    std::uint64_t version = 0;
    RolloutOptions opts;
    bool concluded = false;
    RolloutSnapshot last;
  };

  /// Wires a shard into the cluster-level health plane: alert forwarding
  /// into cluster_alerts_ and the sample-hook relay.
  void wire_shard(Orchestrator& orc);

  /// Applies the cluster verdict for `name` to every shard and the cluster
  /// registry. Caller holds registry_mu_.
  void conclude_rollout_locked(const std::string& name, ClusterRollout& cr,
                               bool promote_candidate, const std::string& reason);

  /// Submits to the candidate shards in order, transparently resubmitting
  /// when a submit comes back immediately-ready with kShuttingDown (the
  /// kill race — see the header comment).
  [[nodiscard]] std::future<Result<Tensor>> submit_failover(
      const std::vector<std::size_t>& candidates, const std::string& name,
      const Tensor& row, const RequestOptions& request);

  /// Candidates reordered so shards whose breaker for `name` is OPEN come
  /// last (a fully-open set still serves via the per-shard fallback path).
  [[nodiscard]] std::vector<std::size_t> prefer_closed_breakers(
      std::vector<std::size_t> candidates, const std::string& name);

  void set_alive_gauges();

  /// Copies one shard's pointer under the shared lock (the Orchestrator
  /// stays alive while any caller still holds the copy, even across revive).
  [[nodiscard]] std::shared_ptr<Orchestrator> shard_ptr(std::size_t i) const;

  ClusterOptions opts_;
  ShardRouter router_;
  // cluster_alerts_ and the hook slots are declared before shards_: shard
  // callbacks raise into / read them, so they must outlive the shards.
  obs::AlertSink cluster_alerts_;
  mutable std::mutex hook_mu_;
  SampleHook sample_hook_;
  std::atomic<bool> hook_set_{false};
  std::vector<std::shared_ptr<Orchestrator>> shards_;
  mutable std::shared_mutex shards_mu_;  ///< guards the shard pointers (revive swaps)

  mutable std::mutex registry_mu_;  ///< serializes fan-outs + rollout verdicts
  ModelRegistry registry_;          ///< cluster source of truth (version ids)
  std::map<std::string, ClusterRollout> cluster_rollouts_;
  std::uint64_t registry_version_ = 0;

  std::atomic<std::uint64_t> rr_{0};  ///< round-robin cursor (batched path)
  Timer uptime_;

  obs::MetricsRegistry cluster_metrics_;
  obs::Counter& failovers_;
  obs::Counter& breaker_reroutes_;
  obs::Counter& shard_failures_;
  obs::Gauge& shards_alive_gauge_;
  obs::Gauge& shards_total_gauge_;

  /// Span sink for the cluster-level request spans (route/failover); the
  /// shards share it (shard_opts.tracer), so one trace id crosses the
  /// router -> shard -> batch hops. Never null.
  obs::Tracer* tracer_;
  std::atomic<std::uint64_t> trace_ticker_{0};  ///< cluster head-sampling

  /// Declared after shards_ so it is destroyed (and drained) first — its
  /// handlers read the shards and the tracer.
  std::mutex http_mu_;
  std::unique_ptr<obs::HttpServer> http_;
};

}  // namespace ahn::runtime
