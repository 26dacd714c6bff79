// Tests for the self-healing serving loop (docs/RETRAINING.md): the
// versioned ModelRegistry (monotone ids, atomic promote/rollback,
// retention), the shadow/canary RolloutController state machine, the
// Orchestrator's live-traffic rollout path (shadow isolation, QoI-regression
// auto-rollback, promote/rollback races), the coordinated cluster rollout
// fan-out, and the Retrainer's Turaco-weighted reservoir + closed
// drift-to-promotion loop.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/topology.hpp"
#include "runtime/cluster.hpp"
#include "runtime/deployment.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/orchestrator.hpp"
#include "runtime/retrainer.hpp"
#include "runtime/rollout.hpp"

namespace ahn::runtime {
namespace {

constexpr std::size_t kFeatures = 4;

/// A servable with a deterministic tiny network; `seed` varies the weights
/// so two rigs produce bitwise-different outputs.
std::shared_ptr<ServableModel> rig_model(std::uint64_t seed = 1) {
  Rng rng(seed);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  nn::Network net = nn::build_surrogate(spec, kFeatures, 2, rng);
  auto m = std::make_shared<ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

Tensor request_row(double base = 0.1) {
  return Tensor({1, kFeatures}, {base, base + 0.1, base + 0.2, base + 0.3});
}

OrchestratorOptions inline_opts() {
  OrchestratorOptions opts;
  opts.max_batch = 1;              // submits execute inline on the caller
  opts.batch_flusher = false;  // no flusher thread
  return opts;
}

// ----------------------------------------------------------- ModelRegistry

TEST(Registry, PublishMintsMonotoneIdsAndPromoteActivates) {
  ModelRegistry reg;
  EXPECT_EQ(reg.active_id("m"), 0u);
  const std::uint64_t v1 = reg.publish("m", rig_model(1), nullptr, "deploy");
  const std::uint64_t v2 = reg.publish("m", rig_model(2), nullptr, "retrain");
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  // Publishing does not serve; promotion does.
  EXPECT_EQ(reg.active_id("m"), 0u);
  EXPECT_EQ(reg.active_model("m"), nullptr);
  ASSERT_TRUE(reg.promote("m", v1));
  EXPECT_EQ(reg.active_id("m"), v1);
  EXPECT_NE(reg.active_model("m"), nullptr);
  EXPECT_EQ(reg.active("m")->origin, "deploy");
  // Unknown ids / names refuse without side effects.
  EXPECT_FALSE(reg.promote("m", 99));
  EXPECT_FALSE(reg.promote("ghost", v1));
  EXPECT_EQ(reg.active_id("m"), v1);
}

TEST(Registry, ExplicitIdsAdoptedAndMintingStaysAbove) {
  ModelRegistry reg;
  const std::uint64_t adopted =
      reg.publish("m", rig_model(1), nullptr, "replicated", 7);
  EXPECT_EQ(adopted, 7u);
  EXPECT_EQ(reg.publish("m", rig_model(2), nullptr, "retrain"), 8u);
  // Out-of-order replay (revive) keeps the versions vector ascending.
  reg.publish("m", rig_model(3), nullptr, "replicated", 3);
  const std::vector<ModelVersion> vs = reg.versions("m");
  ASSERT_EQ(vs.size(), 3u);
  EXPECT_EQ(vs[0].id, 3u);
  EXPECT_EQ(vs[1].id, 7u);
  EXPECT_EQ(vs[2].id, 8u);
  // A duplicate explicit id is a caller bug, not a silent overwrite.
  EXPECT_THROW(reg.publish("m", rig_model(4), nullptr, "replicated", 7), Error);
}

TEST(Registry, RollbackSwapsActiveAndPrior) {
  ModelRegistry reg;
  const std::uint64_t v1 = reg.publish("m", rig_model(1), nullptr, "deploy");
  const std::uint64_t v2 = reg.publish("m", rig_model(2), nullptr, "retrain");
  EXPECT_FALSE(reg.rollback("m").has_value());  // nothing promoted yet
  reg.promote("m", v1);
  EXPECT_FALSE(reg.rollback("m").has_value());  // no prior yet
  reg.promote("m", v2);
  const std::optional<ModelVersion> restored = reg.rollback("m");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->id, v1);
  EXPECT_EQ(reg.active_id("m"), v1);
  // Roll forward again: rollback is a swap, so it undoes itself.
  ASSERT_TRUE(reg.rollback("m").has_value());
  EXPECT_EQ(reg.active_id("m"), v2);
}

TEST(Registry, RetentionEvictsOldestButNeverActiveOrPrior) {
  RegistryOptions opts;
  opts.retain = 2;
  ModelRegistry reg(opts);
  const std::uint64_t v1 = reg.publish("m", rig_model(1), nullptr, "deploy");
  reg.promote("m", v1);
  const std::uint64_t v2 = reg.publish("m", rig_model(2), nullptr, "retrain");
  reg.promote("m", v2);  // active=2, prior=1
  // v3 exceeds retention, but v1 (prior) and v2 (active) are protected —
  // the newcomer itself is the only evictable version and is kept.
  const std::uint64_t v3 = reg.publish("m", rig_model(3), nullptr, "retrain");
  std::optional<RegistryEntrySnapshot> snap = reg.snapshot("m");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->active, v2);
  EXPECT_EQ(snap->prior, v1);
  EXPECT_EQ(snap->retained, (std::vector<std::uint64_t>{v1, v2, v3}));
  // Promoting v3 frees v1: active=3, prior=2 — the next publish evicts v1.
  reg.promote("m", v3);
  reg.publish("m", rig_model(4), nullptr, "retrain");
  snap = reg.snapshot("m");
  EXPECT_EQ(snap->retained, (std::vector<std::uint64_t>{v2, v3, 4u}));
  EXPECT_FALSE(reg.version("m", v1).has_value());
}

// ------------------------------------------------------- RolloutController

RolloutOptions tiny_rollout() {
  RolloutOptions o;
  o.shadow_rows = 4;
  o.shadow_margin = 0.0;
  o.canary_rows = 4;
  o.canary_min_samples = 2;
  o.canary_fraction = 1.0;
  o.canary_max_miss = 0.25;
  o.stage_timeout_seconds = 60.0;
  return o;
}

TEST(RolloutController, ShadowPassAdvancesToCanary) {
  RolloutController ctl("m", 2, tiny_rollout());
  EXPECT_EQ(ctl.state(), RolloutState::kShadow);
  EXPECT_FALSE(ctl.admit_canary());  // not in canary yet
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ctl.record_shadow(true, true), RolloutState::kShadow);
  }
  EXPECT_EQ(ctl.record_shadow(true, true), RolloutState::kCanary);
  const RolloutSnapshot s = ctl.snapshot();
  EXPECT_EQ(s.shadow_rows, 4u);
  EXPECT_EQ(s.shadow_candidate_miss, 0u);
}

TEST(RolloutController, ShadowQoIRegressionFails) {
  RolloutController ctl("m", 2, tiny_rollout());
  ctl.record_shadow(true, true);
  ctl.record_shadow(true, false);  // candidate misses where active passes
  ctl.record_shadow(true, true);
  EXPECT_EQ(ctl.record_shadow(true, true), RolloutState::kFailed);
  EXPECT_NE(ctl.snapshot().reason.find("shadow QoI regression"),
            std::string::npos);
}

TEST(RolloutController, CanaryPassesThenFailsOnMissRate) {
  RolloutController pass("m", 2, tiny_rollout());
  for (int i = 0; i < 4; ++i) pass.record_shadow(true, true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pass.admit_canary());
    EXPECT_EQ(pass.record_canary(true), RolloutState::kCanary);
  }
  ASSERT_TRUE(pass.admit_canary());
  EXPECT_EQ(pass.record_canary(true), RolloutState::kPassed);

  RolloutController fail("m", 2, tiny_rollout());
  for (int i = 0; i < 4; ++i) fail.record_shadow(true, true);
  fail.record_canary(false);                  // below min_samples: no verdict
  EXPECT_EQ(fail.state(), RolloutState::kCanary);
  EXPECT_EQ(fail.record_canary(false), RolloutState::kFailed);
  EXPECT_NE(fail.snapshot().reason.find("canary QoI miss rate"),
            std::string::npos);
}

TEST(RolloutController, CanaryAdmissionHonorsFraction) {
  RolloutOptions o = tiny_rollout();
  o.canary_fraction = 0.25;
  RolloutController ctl("m", 2, o);
  for (int i = 0; i < 4; ++i) ctl.record_shadow(true, true);
  std::size_t admitted = 0;
  for (int i = 0; i < 100; ++i) {
    if (ctl.admit_canary()) ++admitted;
  }
  EXPECT_EQ(admitted, 25u);  // deterministic stride, exact at 1/4
}

TEST(RolloutController, StageTimeoutFailsViaPoll) {
  double now = 0.0;
  RolloutOptions o = tiny_rollout();
  o.stage_timeout_seconds = 10.0;
  RolloutController ctl("m", 2, o, [&now] { return now; });
  now = 9.0;
  EXPECT_EQ(ctl.poll(), RolloutState::kShadow);
  now = 10.5;
  EXPECT_EQ(ctl.poll(), RolloutState::kFailed);
  EXPECT_NE(ctl.snapshot().reason.find("stage exceeded"), std::string::npos);
}

TEST(RolloutController, BreakerTripFailsMidStage) {
  RolloutController ctl("m", 2, tiny_rollout());
  ctl.record_shadow(true, true);
  ctl.note_breaker_trip();
  EXPECT_EQ(ctl.state(), RolloutState::kFailed);
  EXPECT_NE(ctl.snapshot().reason.find("breaker"), std::string::npos);
  // Terminal marks are idempotent against prior decisions.
  ctl.mark_rolled_back("verdict");
  EXPECT_EQ(ctl.state(), RolloutState::kRolledBack);
  ctl.mark_promoted();
  EXPECT_EQ(ctl.state(), RolloutState::kRolledBack);
}

// --------------------------------------------------- reservoir + weighting

TEST(Retraining, ComplexityWeightScoresDriftedRows) {
  obs::FeatureSketch ref(2);
  Rng rng(5);
  std::vector<double> row(2);
  for (int i = 0; i < 512; ++i) {
    row[0] = rng.uniform(-1.0, 1.0);
    row[1] = rng.uniform(9.0, 11.0);
    ref.observe(row);
  }
  // An in-distribution row scores near zero; a +5σ feature dominates.
  const std::vector<double> typical{0.0, 10.0};
  const std::vector<double> drifted{0.0, 10.0 + 5.0 * ref.stddev(1)};
  EXPECT_LT(complexity_weight(ref, typical), 0.5);
  EXPECT_NEAR(complexity_weight(ref, drifted), 5.0, 0.5);
  // NaN features are skipped, not propagated.
  const std::vector<double> with_nan{std::nan(""), 10.0};
  EXPECT_TRUE(std::isfinite(complexity_weight(ref, with_nan)));
}

TEST(Retraining, ReservoirKeepsHighestWeightRows) {
  RetrainReservoir res(3);
  const auto offer = [&](double v, double w) {
    const std::vector<double> row{v};
    res.offer(row, w);
  };
  offer(1.0, 1.0);
  offer(2.0, 2.0);
  offer(3.0, 3.0);
  offer(4.0, 0.5);  // lighter than the current minimum: dropped
  EXPECT_EQ(res.size(), 3u);
  offer(5.0, 9.0);  // heavier: replaces the min-weight row (1.0)
  const std::vector<ReservoirRow> rows = res.snapshot();
  double min_w = 1e300, max_w = 0.0;
  for (const ReservoirRow& r : rows) {
    min_w = std::min(min_w, r.weight);
    max_w = std::max(max_w, r.weight);
  }
  EXPECT_EQ(min_w, 2.0);
  EXPECT_EQ(max_w, 9.0);
  EXPECT_EQ(res.offered(), 5u);
  res.clear();
  EXPECT_EQ(res.size(), 0u);
}

// ------------------------------------------- Orchestrator rollout serving

TEST(Serving, ShadowLeavesResponsesBitwiseUnchanged) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  const std::shared_ptr<ServableModel> active = rig_model(1);
  const std::shared_ptr<ServableModel> cand = rig_model(2);
  orc.set_model("m", active);
  const std::uint64_t v2 = orc.install_candidate("m", cand, nullptr, "test");

  RolloutOptions ro = tiny_rollout();
  ro.shadow_rows = 64;  // stay in shadow for the whole test
  ASSERT_TRUE(orc.begin_rollout("m", v2, ro).is_ok());

  for (int i = 0; i < 16; ++i) {
    const Tensor row = request_row(0.01 * i);
    const Tensor expected = active->surrogate.predict(row);
    const Tensor shadowed_candidate = cand->surrogate.predict(row);
    Result<Tensor> r = orc.run_model_batched("m", row).get();
    ASSERT_TRUE(r.is_ok());
    const Tensor& got = r.value();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got.flat()[k], expected.flat()[k]) << "row " << i;
    }
    // Sanity: the two versions do disagree, so the check is meaningful.
    EXPECT_NE(got.flat()[0], shadowed_candidate.flat()[0]);
  }
  const std::optional<RolloutSnapshot> snap = orc.rollout_progress("m");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, RolloutState::kShadow);
  EXPECT_EQ(snap->shadow_rows, 16u);
  EXPECT_EQ(orc.registry().active_id("m"), 1u);
}

TEST(Serving, BadCandidateAutoRollsBackAndAlerts) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(1));
  auto bad = rig_model(2);
  bad->qoi_check = [](const Tensor&, const Tensor&) { return false; };
  const std::uint64_t v2 = orc.install_candidate("m", bad, nullptr, "test");
  ASSERT_TRUE(orc.begin_rollout("m", v2, tiny_rollout()).is_ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(orc.run_model_batched("m", request_row()).get().is_ok());
  }
  const std::optional<RolloutSnapshot> snap = orc.rollout_progress("m");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, RolloutState::kRolledBack);
  EXPECT_EQ(snap->shadow_candidate_miss, 4u);
  EXPECT_EQ(orc.registry().active_id("m"), 1u);
  EXPECT_EQ(orc.alerts().raised(obs::AlertKind::kRolloutRolledBack), 1u);
  // The candidate is discarded but retained — a post-mortem can inspect it.
  EXPECT_TRUE(orc.registry().version("m", v2).has_value());
}

TEST(Serving, GoodCandidatePromotesThroughCanary) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(1));
  const std::uint64_t v2 = orc.install_candidate("m", rig_model(2), nullptr, "test");
  ASSERT_TRUE(orc.begin_rollout("m", v2, tiny_rollout()).is_ok());
  // A duplicate rollout for the same model is refused while one is live.
  EXPECT_FALSE(orc.begin_rollout("m", v2, tiny_rollout()).is_ok());

  for (int i = 0; i < 8; ++i) {  // 4 shadow + 4 canary rows
    ASSERT_TRUE(orc.run_model_batched("m", request_row()).get().is_ok());
  }
  const std::optional<RolloutSnapshot> snap = orc.rollout_progress("m");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, RolloutState::kPromoted);
  EXPECT_EQ(snap->canary_rows, 4u);
  EXPECT_EQ(orc.registry().active_id("m"), v2);
  EXPECT_EQ(orc.alerts().raised(obs::AlertKind::kRolloutRolledBack), 0u);
}

TEST(Serving, BeginRolloutValidatesVersions) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  EXPECT_EQ(orc.begin_rollout("m", 1, tiny_rollout()).code(),
            StatusCode::kNotFound);
  orc.set_model("m", rig_model(1));
  EXPECT_EQ(orc.begin_rollout("m", 1, tiny_rollout()).code(),
            StatusCode::kInvalidArgument);  // candidate == active
  EXPECT_EQ(orc.begin_rollout("m", 9, tiny_rollout()).code(),
            StatusCode::kNotFound);
}

TEST(Serving, PromoteRebaselinesDriftForSecondEpisode) {
  // Regression test for the dangling re-arm: after a promote, the monitor
  // must re-baseline so a *second* drift episode alerts again.
  OrchestratorOptions opts = inline_opts();
  opts.monitor.sample_every = 1;
  opts.monitor.drift_check_every = 1;
  opts.monitor.drift.min_samples = 16;
  opts.monitor.drift_threshold = 2.0;
  Orchestrator orc(DeviceModel{}, opts);

  Rng rng(7);
  Tensor train({128, kFeatures});
  for (double& v : train.flat()) v = rng.uniform(-1.0, 1.0);
  orc.deploy(DeploymentPackage::build("m", rig_model(1), train));

  const auto serve_drifted = [&] {
    for (int i = 0; i < 32; ++i) {
      Tensor row({1, kFeatures});
      for (double& v : row.flat()) v = rng.uniform(4.0, 5.0);
      ASSERT_TRUE(orc.run_model_batched("m", std::move(row)).get().is_ok());
    }
  };
  serve_drifted();
  EXPECT_EQ(orc.alerts().raised(obs::AlertKind::kDriftDetected), 1u);
  EXPECT_TRUE(orc.model_health("m").retrain_recommended);

  // "Recover" by promoting a fresh version (no new sketch: rebaseline path).
  const std::uint64_t v2 = orc.install_candidate("m", rig_model(2), nullptr, "fix");
  ASSERT_TRUE(orc.promote("m", v2));
  EXPECT_FALSE(orc.model_health("m").retrain_recommended);
  EXPECT_EQ(orc.model_health("m").drift_score, 0.0);

  // The same drifted traffic must alert again — the edge-trigger re-armed.
  serve_drifted();
  EXPECT_EQ(orc.alerts().raised(obs::AlertKind::kDriftDetected), 2u);
}

TEST(Serving, PromoteRollbackRaceWithConcurrentBatchedServing) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(1));
  const std::uint64_t v2 = orc.install_candidate("m", rig_model(2), nullptr, "b");
  ASSERT_TRUE(orc.promote("m", v2));  // active=2, prior=1

  // Version flips race a fixed amount of serving: every request must still
  // resolve OK against whichever version is active when its batch executes.
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(orc.rollback("m").has_value());  // flips 1 <-> 2
    }
  });
  constexpr int kRowsPerClient = 200;
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRowsPerClient; ++i) {
        if (orc.run_model_batched("m", request_row()).get().is_ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  EXPECT_EQ(served.load(), 3u * kRowsPerClient);
  const std::uint64_t active = orc.registry().active_id("m");
  EXPECT_TRUE(active == 1u || active == 2u);
}

// --------------------------------------------------- cluster coordination

ClusterOptions small_cluster(std::size_t shards) {
  ClusterOptions opts;
  opts.shards = shards;
  opts.replication = 2;
  opts.shard_opts = inline_opts();
  return opts;
}

TEST(ClusterRollout, VersionedFanOutSharesIds) {
  ClusterOrchestrator cluster(small_cluster(3));
  cluster.set_model("m", rig_model(1));
  const std::uint64_t v2 =
      cluster.install_candidate("m", rig_model(2), nullptr, "retrain");
  EXPECT_EQ(v2, 2u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s).registry().active_id("m"), 1u);
    EXPECT_TRUE(cluster.shard(s).registry().version("m", v2).has_value());
  }
  ASSERT_TRUE(cluster.promote("m", v2));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s).registry().active_id("m"), v2);
  }
  const std::optional<std::uint64_t> restored = cluster.rollback("m");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 1u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s).registry().active_id("m"), 1u);
  }
  EXPECT_EQ(cluster.registry_version(), 4u);  // set_model + install + 2 flips
}

TEST(ClusterRollout, CoordinatedPromotionAcrossShards) {
  ClusterOrchestrator cluster(small_cluster(2));
  cluster.set_model("m", rig_model(1));
  const std::uint64_t v2 =
      cluster.install_candidate("m", rig_model(2), nullptr, "retrain");
  RolloutOptions ro = tiny_rollout();
  ro.canary_min_samples = 1;
  ASSERT_TRUE(cluster.begin_rollout("m", v2, ro).is_ok());

  // Round-robin serving spreads rows over both shards; every alive shard
  // must individually reach PASSED before the coordinator promotes.
  std::size_t lost = 0;
  for (int i = 0; i < 200; ++i) {
    if (!cluster.run_model_batched("m", request_row()).get().is_ok()) ++lost;
    const std::optional<RolloutSnapshot> snap = cluster.rollout_progress("m");
    ASSERT_TRUE(snap.has_value());
    if (snap->state == RolloutState::kPromoted) break;
    ASSERT_NE(snap->state, RolloutState::kRolledBack) << snap->reason;
  }
  EXPECT_EQ(lost, 0u);
  const std::optional<RolloutSnapshot> fin = cluster.rollout_progress("m");
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(fin->state, RolloutState::kPromoted);
  EXPECT_EQ(cluster.registry().active_id("m"), v2);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.shard(s).registry().active_id("m"), v2);
  }
}

TEST(ClusterRollout, AnyShardFailureRollsBackEverywhere) {
  ClusterOrchestrator cluster(small_cluster(2));
  cluster.set_model("m", rig_model(1));
  auto bad = rig_model(2);
  bad->qoi_check = [](const Tensor&, const Tensor&) { return false; };
  const std::uint64_t v2 = cluster.install_candidate("m", bad, nullptr, "retrain");
  ASSERT_TRUE(cluster.begin_rollout("m", v2, tiny_rollout()).is_ok());

  std::optional<RolloutSnapshot> snap;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.run_model_batched("m", request_row()).get().is_ok());
    snap = cluster.rollout_progress("m");
    ASSERT_TRUE(snap.has_value());
    if (snap->state == RolloutState::kRolledBack) break;
  }
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, RolloutState::kRolledBack);
  EXPECT_NE(snap->reason.find("shard"), std::string::npos);
  EXPECT_EQ(cluster.registry().active_id("m"), 1u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.shard(s).registry().active_id("m"), 1u);
  }
  // Every shard's rollback alert forwards into the cluster-merged sink.
  EXPECT_GE(cluster.alert_sink().raised(obs::AlertKind::kRolloutRolledBack), 1u);
}

TEST(ClusterRollout, SurvivesMidRolloutShardFailAndRevive) {
  ClusterOrchestrator cluster(small_cluster(3));
  cluster.set_model("m", rig_model(1));
  const std::uint64_t v2 =
      cluster.install_candidate("m", rig_model(2), nullptr, "retrain");
  RolloutOptions ro = tiny_rollout();
  ro.canary_min_samples = 1;
  ASSERT_TRUE(cluster.begin_rollout("m", v2, ro).is_ok());

  cluster.fail_shard(0);
  cluster.revive_shard(0);
  // The revived shard reconciled the full versioned registry and resumed
  // the in-flight rollout from scratch.
  EXPECT_EQ(cluster.shard(0).registry().active_id("m"), 1u);
  EXPECT_TRUE(cluster.shard(0).registry().version("m", v2).has_value());
  const std::optional<RolloutSnapshot> resumed = cluster.shard(0).rollout_progress("m");
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->state, RolloutState::kShadow);

  std::size_t lost = 0;
  std::optional<RolloutSnapshot> snap;
  for (int i = 0; i < 400; ++i) {
    if (!cluster.run_model_batched("m", request_row()).get().is_ok()) ++lost;
    snap = cluster.rollout_progress("m");
    ASSERT_TRUE(snap.has_value());
    if (snap->state == RolloutState::kPromoted) break;
    ASSERT_NE(snap->state, RolloutState::kRolledBack) << snap->reason;
  }
  EXPECT_EQ(lost, 0u);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, RolloutState::kPromoted);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s).registry().active_id("m"), v2)
        << "shard " << s;
  }
}

// ------------------------------------------------------- closed retrain loop

TEST(Retraining, DriftAlertDrivesRetrainToPromotion) {
  // The full single-node loop: drifted traffic -> drift alert -> Retrainer
  // labels its reservoir with the original code, fine-tunes, shadows,
  // canaries, and promotes — ending with the monitor re-baselined.
  OrchestratorOptions opts = inline_opts();
  opts.monitor.sample_every = 1;
  opts.monitor.drift_check_every = 1;
  opts.monitor.drift.min_samples = 16;
  // 3.0, not the default 2.0: the promoted version's reference sketch is
  // built from <= 64 reservoir rows, whose coarse deciles leave ~2.0 of PSI
  // noise against identically-distributed traffic. Real drift scores ~10.
  opts.monitor.drift_threshold = 3.0;
  Orchestrator orc(DeviceModel{}, opts);

  // Teacher: y = (sum(x), sum(x)/2). The initial surrogate never trained on
  // anything, so the QoI contract is left open (accept finite) — the loop
  // under test is trigger -> retrain -> rollout, not model quality.
  auto model = rig_model(1);
  model->fallback = [](const Tensor& row_in) {
    const double s =
        std::accumulate(row_in.flat().begin(), row_in.flat().end(), 0.0);
    return Tensor({1, 2}, {s, 0.5 * s});
  };
  Rng rng(11);
  Tensor train({128, kFeatures});
  for (double& v : train.flat()) v = rng.uniform(-1.0, 1.0);
  orc.deploy(DeploymentPackage::build("m", model, train));

  RetrainerOptions ro;
  ro.sample_every = 1;
  ro.reservoir_capacity = 64;
  // Strictly below the drift detector's min_samples (16): the edge-triggered
  // alert fires exactly once, so the one cycle it queues must find enough
  // reservoir rows even if it races the last sample-hook offers.
  ro.min_retrain_rows = 8;
  ro.train.epochs = 8;
  ro.train.batch_size = 8;
  ro.train.patience = 8;
  ro.rollout = tiny_rollout();
  ro.rollout.canary_min_samples = 1;
  Retrainer retrainer(orc, ro);

  // Drifted traffic (+4..5 vs the [-1,1] training range) until the cycle
  // completes: the drift alert fires once 16 sampled rows accumulate, the
  // worker trains on the reservoir, and the rollout consumes live rows.
  // Stop serving on the registry flip (promotion runs inline on this
  // thread via auto_finalize), NOT on the worker's cycles_promoted: the
  // worker notices the terminal state on its next poll, and rows served in
  // that gap would accumulate against the freshly re-baselined (and, at
  // 8 reservoir rows, very coarse) reference sketch until its min_samples
  // fill and PSI noise re-raises the drift alert.
  std::size_t lost = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (orc.registry().active_id("m") == 1 &&
         std::chrono::steady_clock::now() < deadline) {
    Tensor row({1, kFeatures});
    for (double& v : row.flat()) v = rng.uniform(4.0, 5.0);
    if (!orc.run_model_batched("m", std::move(row)).get().is_ok()) ++lost;
  }
  while (retrainer.stats().cycles_promoted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const RetrainerStats stats = retrainer.stats();
  EXPECT_EQ(lost, 0u);
  EXPECT_GE(stats.alerts_seen, 1u);
  EXPECT_GE(stats.cycles_started, 1u);
  ASSERT_EQ(stats.cycles_promoted, 1u) << "rolled back " << stats.cycles_rolled_back
                                       << ", skipped " << stats.cycles_skipped;
  EXPECT_EQ(orc.registry().active_id("m"), 2u);
  EXPECT_EQ(orc.registry().active("m")->origin, "retrain");
  // Promotion installed the reservoir sketch and cleared the retrain flag.
  EXPECT_FALSE(orc.model_health("m").retrain_recommended);
  // The promoted cycle flushed its reservoir for the next episode (a few
  // rows served between the worker's promote and this check may re-enter).
  EXPECT_LE(retrainer.reservoir_size("m"), 8u);
  retrainer.stop();
}

// Alert storms must collapse into the cycle already running: a duplicate
// trigger for a model that is queued or mid-cycle is counted, not stacked.
TEST(Retraining, AlertStormCoalescesQueuedDuplicates) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(1));
  Retrainer retrainer(orc, RetrainerOptions{});
  retrainer.stop();  // freeze the worker: queued entries stay queued

  retrainer.request_retrain("m");   // enqueues
  retrainer.request_retrain("m");   // duplicate -> coalesced
  retrainer.request_retrain("m");   // duplicate -> coalesced
  retrainer.request_retrain("m2");  // different model -> enqueues

  const RetrainerStats stats = retrainer.stats();
  EXPECT_EQ(stats.cycles_coalesced, 2u);
  EXPECT_EQ(stats.cycles_started, 0u);
  // The dedupes are also visible on the host's registry for operators.
  EXPECT_EQ(orc.stats().metrics().counter("serving.retrain.coalesced").value(), 2u);
}

// A rollout in flight (whoever started it) means a candidate is already
// being judged: a new trigger for that model coalesces instead of queueing a
// second cycle behind it — rollout_in_flight is the side-effect-free probe.
TEST(Retraining, TriggerDuringLiveRolloutCoalesces) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(1));
  const std::uint64_t v2 = orc.install_candidate("m", rig_model(2), nullptr, "test");
  RolloutOptions ro = tiny_rollout();
  ro.shadow_rows = 64;  // stays in shadow for the whole test
  ASSERT_TRUE(orc.begin_rollout("m", v2, ro).is_ok());
  ASSERT_TRUE(orc.rollout_in_flight("m"));
  EXPECT_FALSE(orc.rollout_in_flight("other"));

  Retrainer retrainer(orc, RetrainerOptions{});
  retrainer.request_retrain("m");
  retrainer.stop();
  const RetrainerStats stats = retrainer.stats();
  EXPECT_EQ(stats.cycles_coalesced, 1u);
  EXPECT_EQ(stats.cycles_started, 0u);
  // The probe left the rollout untouched (no deadline poll side effects).
  ASSERT_TRUE(orc.rollout_in_flight("m"));
}

TEST(Retraining, CycleSkipsWithoutFallbackOrRows) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(1));  // no fallback: nothing can label rows
  RetrainerOptions ro;
  ro.min_retrain_rows = 4;
  Retrainer retrainer(orc, ro);
  retrainer.request_retrain("m");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (retrainer.stats().cycles_skipped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const RetrainerStats stats = retrainer.stats();
  EXPECT_EQ(stats.cycles_started, 1u);
  EXPECT_EQ(stats.cycles_skipped, 1u);
  EXPECT_EQ(stats.cycles_promoted, 0u);
  EXPECT_EQ(orc.registry().active_id("m"), 1u);
}

}  // namespace
}  // namespace ahn::runtime
