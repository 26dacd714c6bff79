// Multi-shard serving bench (docs/SHARDING.md): aggregate throughput scaling
// and zero-loss shard failover for the ClusterOrchestrator.
//
// Phase A — scaling: the same request stream is served by clusters of 1, 2,
// 4, and 8 shards (round-robin batched path). Each shard owns one modeled
// accelerator, so the cluster finishes its work in max-over-shards modeled
// device time; aggregate device-bound throughput is
//     requests / max_i(device_seconds(shard i))
// which is the quantity that must scale near-linearly with shard count.
// (This testbed is a single-core container: wall-clock cannot show N-way
// parallelism, but per-shard modeled device seconds — the same analytic
// DeviceModel the rest of the benches gate on — can. Requests execute
// inline with batch size 1 so the per-request device cost is constant
// across shard counts and the comparison isolates partitioning.)
//
// Phase B — failover: 4 shards, replication 2, concurrent keyed clients; a
// shard is killed mid-stream. The zero-loss contract (router flips first,
// victim drains, racing submits are resubmitted to a replica) is gated at
// exactly zero lost requests.
//
// Emits BENCH_multi_shard.json (scaling table + failover outcome + the
// merged shard-labeled cluster metrics) and BENCH_multi_shard.prom (the
// merged snapshot through the Prometheus text exposition). Exits non-zero
// if the >=3x @ 4 shards or zero-loss gate fails, so CI can gate on it.

#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "nn/topology.hpp"
#include "obs/export.hpp"
#include "obs/exposition.hpp"
#include "runtime/cluster.hpp"

namespace {

using namespace ahn;

constexpr std::size_t kInFeatures = 16;
constexpr std::size_t kOutFeatures = 4;

std::shared_ptr<runtime::ServableModel> make_model() {
  Rng rng(11);
  nn::TopologySpec spec;
  spec.num_layers = 2;
  spec.hidden_units = 32;
  nn::Network net = nn::build_surrogate(spec, kInFeatures, kOutFeatures, rng);
  auto m = std::make_shared<runtime::ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

runtime::ClusterOptions cluster_options(std::size_t shards) {
  runtime::ClusterOptions opts;
  opts.shards = shards;
  opts.replication = std::min<std::size_t>(2, shards);
  opts.shard_opts.max_batch = 1;              // constant per-request device cost
  opts.shard_opts.batch_flusher = false;  // no flusher thread
  return opts;
}

struct ScalingRow {
  std::size_t shards = 0;
  std::uint64_t requests = 0;
  double wall_seconds = 0.0;
  double max_device_seconds = 0.0;  ///< cluster-critical-path device time
  double modeled_rps = 0.0;
};

ScalingRow run_scaling(std::size_t shards, const std::vector<Tensor>& rows) {
  runtime::ClusterOrchestrator cluster(cluster_options(shards));
  cluster.set_model("surrogate", make_model());

  Timer wall;
  std::vector<std::future<Result<Tensor>>> futures;
  futures.reserve(rows.size());
  for (const Tensor& row : rows) {
    futures.push_back(cluster.run_model_batched("surrogate", row));
  }
  for (auto& f : futures) {
    if (!f.get().is_ok()) {
      std::cout << "FAIL: scaling request failed at " << shards << " shards\n";
      std::exit(1);
    }
  }

  ScalingRow r;
  r.shards = shards;
  r.wall_seconds = wall.seconds();
  const runtime::ClusterHealth h = cluster.cluster_health();
  r.requests = h.requests_served;
  r.modeled_rps = h.modeled_rps;
  for (std::size_t i = 0; i < shards; ++i) {
    r.max_device_seconds = std::max(r.max_device_seconds, cluster.device_seconds(i));
  }
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Multi-shard serving: aggregate throughput scaling + zero-loss failover",
      "the ROADMAP scale-out item over the paper's §6.3 serving path");

  const std::size_t requests = bench::scaled(16000, 1600);
  std::vector<Tensor> rows;
  rows.reserve(requests);
  Rng rng(3);
  for (std::size_t i = 0; i < requests; ++i) {
    rows.push_back(Tensor::randn({1, kInFeatures}, rng));
  }

  // --- Phase A: scaling at 1/2/4/8 shards. ---------------------------------
  std::vector<ScalingRow> scaling;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    scaling.push_back(run_scaling(shards, rows));
  }
  const double base_rps = scaling.front().modeled_rps;

  TextTable table({"shards", "requests", "wall (s)", "max shard device (s)",
                   "aggregate modeled req/s", "speedup"});
  for (const ScalingRow& r : scaling) {
    table.add_row({std::to_string(r.shards), std::to_string(r.requests),
                   TextTable::num(r.wall_seconds, 3),
                   TextTable::num(r.max_device_seconds, 6),
                   TextTable::num(r.modeled_rps, 0),
                   TextTable::num(r.modeled_rps / base_rps, 2) + "x"});
  }
  std::cout << table.render() << "\n";

  const double speedup4 = scaling[2].modeled_rps / base_rps;
  std::cout << "aggregate speedup @ 4 shards: " << TextTable::num(speedup4, 2)
            << "x (target >= 3x)\n\n";

  // --- Phase B: zero-loss shard failure with replica failover. -------------
  constexpr std::size_t kClients = 4;
  const std::size_t per_client = bench::scaled(2000, 400);

  runtime::ClusterOptions fopts = cluster_options(4);
  fopts.shard_opts.max_batch = 4;
  runtime::ClusterOrchestrator cluster(fopts);
  cluster.set_model("surrogate", make_model());

  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> lost{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < per_client; ++i) {
        // Keyed routing: requests follow their tensor key's replica set, so
        // the killed shard's keys must fail over to replicas.
        const std::string key = "req/" + std::to_string(c) + "/" + std::to_string(i);
        auto f = cluster.run_model_batched("surrogate", rows[i % rows.size()], key);
        cluster.flush_batches();
        if (f.get().is_ok()) {
          ok.fetch_add(1);
        } else {
          lost.fetch_add(1);
        }
      }
    });
  }
  // Kill a shard once the stream is genuinely mid-flight (a quarter of the
  // requests resolved), so post-kill traffic must exercise failover.
  const std::size_t total_requests = kClients * per_client;
  while (ok.load() + lost.load() < total_requests / 4) {
    std::this_thread::yield();
  }
  cluster.fail_shard(1);
  for (std::thread& t : clients) t.join();

  const std::size_t total = total_requests;
  runtime::ClusterHealth health = cluster.cluster_health();

  std::cout << "failover run: " << total << " requests, " << ok.load() << " ok, "
            << lost.load() << " lost (target 0)\n"
            << "shards alive after kill:  " << health.shards_alive << "/"
            << health.shards_total << "\n"
            << "failovers recorded:       " << health.failovers << "\n"
            << "cluster p99 latency (s):  " << TextTable::num(health.latency_p99, 9)
            << "\n\n";

  // --- Machine-readable exports. -------------------------------------------
  {
    std::ofstream json("BENCH_multi_shard.json");
    json << "{\n  \"bench\": \"multi_shard\",\n  \"scaling\": [\n";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      const ScalingRow& r = scaling[i];
      json << "    {\"shards\": " << r.shards << ", \"requests\": " << r.requests
           << ", \"max_shard_device_seconds\": "
           << TextTable::num(r.max_device_seconds, 6)
           << ", \"aggregate_rps\": " << TextTable::num(r.modeled_rps, 1)
           << ", \"speedup\": " << TextTable::num(r.modeled_rps / base_rps, 3)
           << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"speedup_4_shards\": " << TextTable::num(speedup4, 3) << ",\n"
         << "  \"failover\": {\n"
         << "    \"requests\": " << total << ",\n"
         << "    \"lost\": " << lost.load() << ",\n"
         << "    \"failovers\": " << health.failovers << ",\n"
         << "    \"shards_alive\": " << health.shards_alive << ",\n"
         << "    \"shards_total\": " << health.shards_total << "\n"
         << "  },\n"
         << "  \"cluster_metrics\": ";
    obs::ExportOptions eo;
    eo.base_indent = 2;
    obs::export_json(json, health.merged, nullptr, eo);
    json << "\n}\n";
  }
  std::cout << "wrote BENCH_multi_shard.json\n";

  if (!obs::export_prometheus_file("BENCH_multi_shard.prom", health.merged)) {
    std::cout << "FAIL: prometheus export\n";
    return 1;
  }
  std::cout << "wrote BENCH_multi_shard.prom\n";

  const bool scaling_ok = speedup4 >= 3.0;
  const bool failover_ok =
      lost.load() == 0 && ok.load() == total && health.failovers > 0 &&
      health.shards_alive == 3;
  if (!scaling_ok) std::cout << "FAIL: sub-3x aggregate scaling at 4 shards\n";
  if (!failover_ok) std::cout << "FAIL: lost requests or no failover recorded\n";
  const bool pass = scaling_ok && failover_ok;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
