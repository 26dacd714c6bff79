// Tests for the multi-shard serving layer (docs/SHARDING.md): FNV-1a /
// consistent-hash placement stability, ShardRouter liveness + failover,
// ClusterOrchestrator replication, atomic deploy fan-out, zero-loss shard
// failure, revive re-sync, and cluster_health aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "nn/topology.hpp"
#include "obs/exposition.hpp"
#include "runtime/cluster.hpp"
#include "runtime/shard_router.hpp"

namespace ahn::runtime {
namespace {

std::vector<std::string> make_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("key/" + std::to_string(i));
  return keys;
}

// ------------------------------------------------------------- hashing

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors — placement is a cross-build
  // contract, so the hash itself is pinned.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(RingHash, AvalanchesSequentialKeys) {
  // Plain FNV-1a leaves sequential keys within a narrow band (poor
  // last-byte avalanche); the ring hash must spread them across the space.
  std::vector<std::uint64_t> hs;
  for (const std::string& k : make_keys(100)) hs.push_back(ring_hash(k));
  std::sort(hs.begin(), hs.end());
  EXPECT_GT(hs.back() - hs.front(), std::uint64_t{1} << 62);
  for (std::size_t i = 1; i < hs.size(); ++i) EXPECT_NE(hs[i], hs[i - 1]);
}

TEST(RingHash, SpreadsKeysAcrossShards) {
  ConsistentHashRing ring(8);
  std::vector<std::size_t> counts(8, 0);
  for (const std::string& k : make_keys(8000)) ++counts[ring.owner(k)];
  for (std::size_t s = 0; s < 8; ++s) {
    // Each shard should own a non-degenerate slice: between a third and
    // three times its fair share (1000 keys).
    EXPECT_GT(counts[s], 300u) << "shard " << s;
    EXPECT_LT(counts[s], 3000u) << "shard " << s;
  }
}

// ------------------------------------------------- consistent-hash stability

TEST(ConsistentHashRing, AddingShardMovesOnlyItsSlice) {
  const std::vector<std::string> keys = make_keys(10000);
  ConsistentHashRing before(4);
  ConsistentHashRing after(4);
  after.add_shard(4);

  std::size_t moved = 0;
  for (const std::string& k : keys) {
    const std::size_t was = before.owner(k);
    const std::size_t now = after.owner(k);
    if (was != now) {
      ++moved;
      // Every migrated key must land on the NEW shard — consistent hashing
      // never shuffles keys between pre-existing shards.
      EXPECT_EQ(now, 4u) << "key " << k << " moved " << was << "->" << now;
    }
  }
  // Expected migration is ~1/5 of the key space; allow generous slack but
  // fail on anything resembling rehash-everything behaviour.
  EXPECT_GT(moved, keys.size() / 20);
  EXPECT_LT(moved, keys.size() * 2 / 5);
}

TEST(ConsistentHashRing, RemovingShardStrandsOnlyItsKeys) {
  const std::vector<std::string> keys = make_keys(10000);
  ConsistentHashRing before(5);
  ConsistentHashRing after(5);
  after.remove_shard(2);

  std::size_t moved = 0;
  for (const std::string& k : keys) {
    const std::size_t was = before.owner(k);
    const std::size_t now = after.owner(k);
    if (was != 2) {
      // Keys not owned by the removed shard keep their owner exactly.
      EXPECT_EQ(now, was) << "key " << k;
    } else {
      EXPECT_NE(now, 2u);
      ++moved;
    }
  }
  EXPECT_GT(moved, keys.size() / 20);
  EXPECT_LT(moved, keys.size() * 2 / 5);
}

TEST(ConsistentHashRing, OwnersAreDistinctAndStartAtPrimary) {
  ConsistentHashRing ring(6);
  for (const std::string& k : make_keys(200)) {
    const std::vector<std::size_t> owners = ring.owners(k, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners.front(), ring.owner(k));
    const std::set<std::size_t> uniq(owners.begin(), owners.end());
    EXPECT_EQ(uniq.size(), owners.size());
  }
}

TEST(ConsistentHashRing, ReplicaSetClampsToShardCount) {
  ConsistentHashRing ring(2);
  EXPECT_EQ(ring.owners("k", 5).size(), 2u);
}

// ------------------------------------------------------------ router failover

TEST(ShardRouter, RoutesAroundDeadShard) {
  ShardRouter router(4, /*replicas=*/3);
  std::size_t failed_over = 0;
  for (const std::string& k : make_keys(500)) {
    const std::vector<std::size_t> owners = router.owners(k);
    router.set_alive(owners.front(), false);
    const std::size_t routed = router.route(k);
    EXPECT_EQ(routed, owners[1]) << "key " << k;  // next replica in ring order
    if (routed != owners.front()) ++failed_over;
    router.set_alive(owners.front(), true);
  }
  EXPECT_EQ(failed_over, 500u);
}

TEST(ShardRouter, ReportsNoShardWhenReplicaSetIsDead) {
  ShardRouter router(3, /*replicas=*/2);
  const std::vector<std::size_t> owners = router.owners("k");
  for (const std::size_t s : owners) router.set_alive(s, false);
  EXPECT_EQ(router.route("k"), ShardRouter::kNoShard);
  EXPECT_TRUE(router.alive_owners("k").empty());
  router.set_alive(owners[1], true);
  EXPECT_EQ(router.route("k"), owners[1]);
}

TEST(ShardRouter, LivenessFlipDoesNotMoveOtherKeys) {
  ShardRouter router(5, /*replicas=*/2);
  const std::vector<std::string> keys = make_keys(2000);
  std::vector<std::size_t> before;
  before.reserve(keys.size());
  for (const std::string& k : keys) before.push_back(router.route(k));

  router.set_alive(3, false);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t now = router.route(keys[i]);
    if (before[i] != 3) {
      EXPECT_EQ(now, before[i]) << "key " << keys[i];
    } else {
      EXPECT_NE(now, 3u);
    }
  }
}

// ---------------------------------------------------------------- test rig

std::shared_ptr<ServableModel> rig_model() {
  Rng rng(1);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  nn::Network net = nn::build_surrogate(spec, 4, 2, rng);
  auto m = std::make_shared<ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

Tensor request_row() { return Tensor({1, 4}, {0.1, 0.2, 0.3, 0.4}); }

ClusterOptions small_cluster(std::size_t shards, std::size_t replication = 2) {
  ClusterOptions opts;
  opts.shards = shards;
  opts.replication = replication;
  opts.shard_opts.max_batch = 1;              // submits execute inline
  opts.shard_opts.batch_flusher = false;  // no flusher thread
  return opts;
}

// ---------------------------------------------------------- replicated store

TEST(Cluster, PutReplicatesAndSurvivesPrimaryDeath) {
  ClusterOrchestrator cluster(small_cluster(4, 2));
  const Tensor t({1, 3}, {1.0, 2.0, 3.0});
  cluster.put_tensor("k", t);

  const std::vector<std::size_t> owners = cluster.router().owners("k");
  ASSERT_EQ(owners.size(), 2u);
  for (const std::size_t s : owners) {
    EXPECT_TRUE(cluster.shard(s).has_tensor("k"));
  }
  for (std::size_t s = 0; s < 4; ++s) {
    if (std::find(owners.begin(), owners.end(), s) == owners.end()) {
      EXPECT_FALSE(cluster.shard(s).has_tensor("k"));
    }
  }

  cluster.fail_shard(owners.front());
  ASSERT_TRUE(cluster.has_tensor("k"));
  const Tensor got = cluster.get_tensor("k");
  ASSERT_EQ(got.flat().size(), t.flat().size());
  EXPECT_TRUE(std::equal(got.flat().begin(), got.flat().end(), t.flat().begin()));
}

TEST(Cluster, GetThrowsWhenWholeReplicaSetIsDown) {
  ClusterOrchestrator cluster(small_cluster(3, 1));
  cluster.put_tensor("k", Tensor({1, 1}, {7.0}));
  cluster.fail_shard(cluster.router().primary("k"));
  EXPECT_FALSE(cluster.has_tensor("k"));
  EXPECT_THROW((void)cluster.get_tensor("k"), Error);
}

TEST(Cluster, DeleteRemovesFromAllReplicas) {
  ClusterOrchestrator cluster(small_cluster(4, 2));
  cluster.put_tensor("k", Tensor({1, 1}, {1.0}));
  cluster.delete_tensor("k");
  EXPECT_FALSE(cluster.has_tensor("k"));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(cluster.shard(s).has_tensor("k"));
  }
}

// ------------------------------------------------------------ registry fan-out

TEST(Cluster, SetModelFansOutToEveryShard) {
  ClusterOrchestrator cluster(small_cluster(4));
  EXPECT_EQ(cluster.registry_version(), 0u);
  cluster.set_model("m", rig_model());
  EXPECT_EQ(cluster.registry_version(), 1u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_NE(cluster.shard(s).model("m"), nullptr);
  }
  EXPECT_EQ(cluster.model_names(), std::vector<std::string>{"m"});
}

TEST(Cluster, DeployFansOutDriftReference) {
  ClusterOrchestrator cluster(small_cluster(2));
  Rng rng(3);
  Tensor train({64, 4});
  for (double& v : train.flat()) v = rng.uniform(-1.0, 1.0);
  cluster.deploy(DeploymentPackage::build("m", rig_model(), train));
  EXPECT_EQ(cluster.registry_version(), 1u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_TRUE(cluster.shard(s).model_health("m").has_reference);
  }
}

TEST(Cluster, ReviveResyncsRegistryAndServes) {
  ClusterOrchestrator cluster(small_cluster(3));
  cluster.set_model("m", rig_model());
  cluster.fail_shard(1);
  EXPECT_EQ(cluster.alive_count(), 2u);

  cluster.revive_shard(1);
  EXPECT_EQ(cluster.alive_count(), 3u);
  EXPECT_NE(cluster.shard(1).model("m"), nullptr);
  // The revived shard serves directly — the registry was re-synced onto the
  // fresh Orchestrator.
  auto f = cluster.shard(1).run_model_batched("m", request_row());
  EXPECT_TRUE(f.get().is_ok());
}

// ------------------------------------------------------------------- serving

TEST(Cluster, KeyedRunModelExecutesAndRehomesOutput) {
  ClusterOrchestrator cluster(small_cluster(4, 2));
  cluster.set_model("m", rig_model());
  cluster.put_tensor("in", request_row());

  ASSERT_TRUE(cluster.run_model("m", "in", "out").is_ok());
  ASSERT_TRUE(cluster.has_tensor("out"));
  EXPECT_EQ(cluster.get_tensor("out").cols(), 2u);
  // The output lives on its own replica set, not wherever it was computed.
  for (const std::size_t s : cluster.router().owners("out")) {
    EXPECT_TRUE(cluster.shard(s).has_tensor("out"));
  }
}

TEST(Cluster, KeyedRunModelFailsOverToReplica) {
  ClusterOrchestrator cluster(small_cluster(4, 2));
  cluster.set_model("m", rig_model());
  cluster.put_tensor("in", request_row());

  cluster.fail_shard(cluster.router().primary("in"));
  EXPECT_TRUE(cluster.run_model("m", "in", "out").is_ok());
  EXPECT_GE(cluster.failovers(), 1u);
  EXPECT_TRUE(cluster.has_tensor("out"));
}

TEST(Cluster, BatchedServesAcrossShards) {
  ClusterOrchestrator cluster(small_cluster(4));
  cluster.set_model("m", rig_model());
  std::vector<std::future<Result<Tensor>>> futs;
  futs.reserve(64);
  for (int i = 0; i < 64; ++i) {
    futs.push_back(cluster.run_model_batched("m", request_row()));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().is_ok());
  // Round-robin spread: every shard served some of the traffic.
  const ClusterHealth h = cluster.cluster_health();
  EXPECT_EQ(h.requests_served, 64u);
  for (const ShardHealth& sh : h.shards) {
    EXPECT_GT(sh.requests_served, 0u) << "shard " << sh.shard;
  }
}

TEST(Cluster, BatchedWithRoutingKeyHasAffinity) {
  ClusterOrchestrator cluster(small_cluster(4, 2));
  cluster.set_model("m", rig_model());
  const std::size_t owner = cluster.router().primary("tenant-a");
  for (int i = 0; i < 8; ++i) {
    auto f = cluster.run_model_batched("m", request_row(), "tenant-a");
    ASSERT_TRUE(f.get().is_ok());
  }
  const ClusterHealth h = cluster.cluster_health();
  EXPECT_EQ(h.shards[owner].requests_served, 8u);
}

TEST(Cluster, ZeroLossThroughShardFailure) {
  // The bench gate in unit form: kill a shard mid-stream; every submitted
  // request must still resolve OK (accepted work drains, racing submits are
  // transparently resubmitted to a replica).
  ClusterOrchestrator cluster(small_cluster(4, 2));
  cluster.set_model("m", rig_model());

  std::vector<std::future<Result<Tensor>>> futs;
  futs.reserve(200);
  for (int i = 0; i < 100; ++i) {
    futs.push_back(cluster.run_model_batched("m", request_row(),
                                             "k" + std::to_string(i)));
  }
  cluster.fail_shard(0);
  for (int i = 100; i < 200; ++i) {
    futs.push_back(cluster.run_model_batched("m", request_row(),
                                             "k" + std::to_string(i)));
  }
  std::size_t ok = 0;
  for (auto& f : futs) ok += f.get().is_ok() ? 1 : 0;
  EXPECT_EQ(ok, 200u);
  EXPECT_EQ(cluster.alive_count(), 3u);
}

TEST(Cluster, SubmitRacingDrainIsResubmitted) {
  // Drain a shard underneath the router (without marking it dead) to force
  // the kShuttingDown-future race path: the cluster must detect it, mark the
  // shard dead, and resubmit.
  ClusterOrchestrator cluster(small_cluster(2, 2));
  cluster.set_model("m", rig_model());
  cluster.shard(0).drain();  // router still believes shard 0 is alive

  for (int i = 0; i < 16; ++i) {
    auto f = cluster.run_model_batched("m", request_row());
    EXPECT_TRUE(f.get().is_ok()) << "request " << i;
  }
  EXPECT_FALSE(cluster.shard_alive(0));  // race was detected and recorded
  EXPECT_GE(cluster.failovers(), 1u);
}

TEST(Cluster, AllShardsDeadRefusesCleanly) {
  ClusterOrchestrator cluster(small_cluster(2, 2));
  cluster.set_model("m", rig_model());
  cluster.fail_shard(0);
  cluster.fail_shard(1);
  auto f = cluster.run_model_batched("m", request_row());
  const Result<Tensor> r = f.get();
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), StatusCode::kTransientFailure);
}

// ------------------------------------------------------------ aggregate health

TEST(Cluster, HealthMergesShardMetrics) {
  ClusterOrchestrator cluster(small_cluster(3));
  cluster.set_model("m", rig_model());
  for (int i = 0; i < 30; ++i) {
    auto f = cluster.run_model_batched("m", request_row());
    ASSERT_TRUE(f.get().is_ok());
  }

  ClusterHealth h = cluster.cluster_health();
  EXPECT_EQ(h.shards_total, 3u);
  EXPECT_EQ(h.shards_alive, 3u);
  EXPECT_EQ(h.requests_served, 30u);
  EXPECT_EQ(h.registry_version, 1u);
  EXPECT_GT(h.uptime_seconds, 0.0);
  EXPECT_GT(h.modeled_rps, 0.0);
  EXPECT_GT(h.latency_p99, 0.0);
  EXPECT_GE(h.latency_p99, h.latency_p50);

  // Per-shard sums reconcile with the aggregate.
  std::uint64_t sum = 0;
  for (const ShardHealth& sh : h.shards) sum += sh.requests_served;
  EXPECT_EQ(sum, h.requests_served);

  // The merged snapshot is shard-labeled (no collisions) and carries the
  // cluster.* aggregates.
  EXPECT_EQ(h.merged.counters.at("cluster.requests_served"), 30u);
  EXPECT_EQ(h.merged.counters.at(
                "serving.requests_served{shard=\"0\"}") +
                h.merged.counters.at("serving.requests_served{shard=\"1\"}") +
                h.merged.counters.at("serving.requests_served{shard=\"2\"}"),
            30u);
  EXPECT_EQ(h.merged.histograms.at("cluster.latency.total").count, 30u);
  EXPECT_GT(h.merged.gauges.at("cluster.modeled_rps"), 0.0);
}

TEST(Cluster, HealthTracksDeadShardsAndBreakerStates) {
  ClusterOrchestrator cluster(small_cluster(3));
  cluster.set_model("m", rig_model());
  cluster.fail_shard(2);

  const ClusterHealth h = cluster.cluster_health();
  EXPECT_EQ(h.shards_alive, 2u);
  EXPECT_FALSE(h.shards[2].alive);
  for (const ShardHealth& sh : h.shards) {
    ASSERT_EQ(sh.breaker_states.count("m"), 1u);
    EXPECT_STREQ(sh.breaker_states.at("m").c_str(), "closed");
  }
  EXPECT_EQ(h.merged.gauges.at("cluster.shards_alive"), 2.0);
}

TEST(Cluster, ConcurrentClientsAndKillSurviveTsan) {
  // Thread-safety smoke: concurrent batched clients, a mid-run kill and
  // revive, and a health poll — no losses besides none expected, no races.
  ClusterOptions opts = small_cluster(4, 2);
  opts.shard_opts.max_batch = 4;
  ClusterOrchestrator cluster(opts);
  cluster.set_model("m", rig_model());

  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto f = cluster.run_model_batched(
            "m", request_row(), "c" + std::to_string(t) + "/" + std::to_string(i));
        cluster.flush_batches();
        if (f.get().is_ok()) ok.fetch_add(1);
      }
    });
  }
  cluster.fail_shard(1);
  (void)cluster.cluster_health();
  cluster.revive_shard(1);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), 200u);
}

// ------------------------------------------------- tracing + SLOs + HTTP

TEST(Cluster, OneTraceSpansRouterShardAndBatch) {
  obs::Tracer tracer;
  ClusterOptions opts = small_cluster(3, 2);
  opts.shard_opts.tracer = &tracer;
  opts.shard_opts.trace_sample_every = 1;  // trace everything
  ClusterOrchestrator cluster(opts);
  cluster.set_model("m", rig_model());

  auto f = cluster.run_model_batched("m", request_row(), "tenant-a");
  ASSERT_TRUE(f.get().is_ok());

  // Every layer of the one request shares ONE trace id: cluster root →
  // route decision → shard serve → batching (queue wait + execute).
  const obs::TracerSnapshot snap = tracer.snapshot();
  std::set<std::uint64_t> trace_ids;
  std::set<std::string> names;
  for (const obs::SpanRecord& rec : snap.recent) {
    trace_ids.insert(rec.trace_id);
    names.insert(rec.name);
  }
  EXPECT_EQ(trace_ids.size(), 1u);
  EXPECT_NE(*trace_ids.begin(), 0u);
  EXPECT_TRUE(names.count("cluster.run_model_batched"));
  EXPECT_TRUE(names.count("cluster.route"));
  EXPECT_TRUE(names.count("serve.run_model_batched"));
  EXPECT_TRUE(names.count("batching.batch_wait"));
  EXPECT_TRUE(names.count("batching.execute"));

  // The root span is the cluster entry point; everything else descends from
  // the same trace, and the trace id reaches the latency histograms as an
  // OpenMetrics exemplar.
  const ClusterHealth h = cluster.cluster_health();
  obs::PrometheusOptions popts;
  popts.exemplars = true;
  const std::string prom = obs::export_prometheus_string(h.merged, popts);
  EXPECT_NE(prom.find("# {trace_id=\"" + std::to_string(*trace_ids.begin()) +
                      "\"}"),
            std::string::npos);
}

TEST(Cluster, UnsampledRequestsOpenNoSpans) {
  obs::Tracer tracer;
  ClusterOptions opts = small_cluster(2, 1);
  opts.shard_opts.tracer = &tracer;
  opts.shard_opts.trace_sample_every = 0;  // head sampling disabled
  ClusterOrchestrator cluster(opts);
  cluster.set_model("m", rig_model());
  for (int i = 0; i < 8; ++i) {
    auto f = cluster.run_model_batched("m", request_row());
    ASSERT_TRUE(f.get().is_ok());
  }
  EXPECT_TRUE(tracer.snapshot().recent.empty());
  for (const obs::SpanRecord& rec : tracer.snapshot().recent) {
    ADD_FAILURE() << "unexpected span: " << rec.name;
  }
}

TEST(Cluster, SloGaugesRollUpAcrossShards) {
  ClusterOptions opts = small_cluster(2, 1);
  obs::SloSpec slo;
  slo.name = "availability";
  slo.kind = obs::SloKind::kAvailability;
  slo.objective = 0.999;
  opts.shard_opts.slos = {slo};
  ClusterOrchestrator cluster(opts);
  cluster.set_model("m", rig_model());
  for (int i = 0; i < 16; ++i) {
    auto f = cluster.run_model_batched("m", request_row());
    ASSERT_TRUE(f.get().is_ok());
  }

  // cluster_health() forces an SLO evaluation on every shard and rolls the
  // per-shard burn gauges up pessimistically (max across shards).
  const ClusterHealth h = cluster.cluster_health();
  ASSERT_EQ(h.merged.gauges.count("cluster.slo_burn_rate"), 1u);
  ASSERT_EQ(h.merged.gauges.count("cluster.slo_burning"), 1u);
  EXPECT_DOUBLE_EQ(h.merged.gauges.at("cluster.slo_burning"), 0.0);
  bool saw_shard_gauge = false;
  for (const auto& [key, value] : h.merged.gauges) {
    if (key.rfind("slo.burn_rate", 0) == 0) {
      saw_shard_gauge = true;
      EXPECT_GE(h.merged.gauges.at("cluster.slo_burn_rate"), value);
    }
  }
  EXPECT_TRUE(saw_shard_gauge);
  // A healthy all-OK stream burns (essentially) nothing.
  EXPECT_LT(h.merged.gauges.at("cluster.slo_burn_rate"), 1.0);
}

TEST(Cluster, ExpositionServerServesClusterEndpoints) {
  ClusterOptions opts = small_cluster(2, 1);
  obs::SloSpec slo;
  slo.name = "availability";
  opts.shard_opts.slos = {slo};
  opts.shard_opts.trace_sample_every = 1;
  ClusterOrchestrator cluster(opts);
  cluster.set_model("m", rig_model());
  for (int i = 0; i < 4; ++i) {
    auto f = cluster.run_model_batched("m", request_row());
    ASSERT_TRUE(f.get().is_ok());
  }

  obs::HttpServer& server = cluster.serve_exposition();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);
  // Idempotent: a second call returns the same running server.
  EXPECT_EQ(&cluster.serve_exposition(), &server);
  EXPECT_EQ(server.port(), cluster.serve_exposition().port());
}

}  // namespace
}  // namespace ahn::runtime
