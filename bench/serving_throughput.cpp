// Serving-throughput bench for the concurrent batched runtime (§6.3 path).
//
// Compares aggregate single-row inference throughput of:
//   A. legacy      — one client thread driving the Listing-1 sync loop
//                    (put_tensor -> run_model -> unpack_tensor per request),
//                    i.e. the original one-inference-at-a-time orchestrator;
//   B. concurrent  — 8 client threads issuing the same requests through the
//                    micro-batching path (run_model_batched), which
//                    coalesces rows per model into one GEMM and amortizes
//                    the fetch/encode/load phases (§7.3).
//
// Prints measured wall-clock throughput and the modeled per-request online
// latency, and verifies the batched outputs are bitwise-identical to the
// per-row sync outputs. Exits non-zero if the ≥4x throughput target or the
// identity check fails, so CI can gate on it.

#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "nn/topology.hpp"
#include "obs/export.hpp"
#include "obs/exposition.hpp"
#include "runtime/orchestrator.hpp"

namespace {

using namespace ahn;

std::shared_ptr<runtime::ServableModel> make_model(std::size_t in, std::size_t out,
                                                   std::size_t hidden) {
  Rng rng(11);
  nn::TopologySpec spec;
  spec.num_layers = 2;
  spec.hidden_units = hidden;
  nn::Network net = nn::build_surrogate(spec, in, out, rng);
  auto m = std::make_shared<runtime::ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

}  // namespace

int main() {
  bench::print_header("Serving throughput: sync single-client vs 8 threads + batching",
                      "the §6.3 deployment path under concurrent load");

  constexpr std::size_t kInFeatures = 16;
  constexpr std::size_t kOutFeatures = 4;
  constexpr std::size_t kThreads = 8;
  const std::size_t requests = bench::scaled(40000, 4000);
  const std::size_t per_thread = requests / kThreads;
  const std::size_t total = per_thread * kThreads;  // divisible request count

  runtime::OrchestratorOptions opts;
  opts.max_batch = 64;
  opts.batch_flusher = true;
  // Wall-clock here must honor the analytic accelerator (this testbed has no
  // real device): every executed batch occupies the modeled device for its
  // modeled online time, so the serial path pays per-request fetch/load/
  // launch latencies that the batched path amortizes (§7.3).
  opts.simulate_device_occupancy = true;
  runtime::Orchestrator orc(runtime::DeviceModel{}, opts);
  orc.set_model("surrogate", make_model(kInFeatures, kOutFeatures, 32));

  // Distinct deterministic inputs, reused by both modes.
  std::vector<Tensor> rows;
  rows.reserve(total);
  Rng rng(3);
  for (std::size_t i = 0; i < total; ++i) {
    rows.push_back(Tensor::randn({1, kInFeatures}, rng));
  }

  // --- A. legacy sync loop: one client, one request at a time. -------------
  runtime::Client client(orc);
  std::vector<Tensor> sync_outputs;
  sync_outputs.reserve(total);
  Timer sync_timer;
  for (std::size_t i = 0; i < total; ++i) {
    client.put_tensor("in", rows[i]);
    if (!client.run_model("surrogate", "in", "out").is_ok()) return 1;
    sync_outputs.push_back(client.unpack_tensor("out"));
  }
  const double sync_seconds = sync_timer.seconds();
  const double sync_rps = static_cast<double>(total) / sync_seconds;

  // Modeled per-request online seconds of the unbatched path (batch of 1).
  const double modeled_unbatched =
      orc.stats().latency_percentile("total", 50.0) * 1.0;

  // --- B. 8 client threads + micro-batching. -------------------------------
  orc.stats().reset();
  std::vector<Tensor> batched_outputs(total);
  Timer conc_timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        runtime::Client c(orc);
        std::vector<std::future<Result<Tensor>>> futures;
        futures.reserve(per_thread);
        for (std::size_t i = 0; i < per_thread; ++i) {
          futures.push_back(c.run_model_batched("surrogate", rows[t * per_thread + i]));
        }
        orc.flush_batches();  // don't strand this thread's tail partial batch
        for (std::size_t i = 0; i < per_thread; ++i) {
          batched_outputs[t * per_thread + i] = futures[i].get().value();
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const double conc_seconds = conc_timer.seconds();
  const double conc_rps = static_cast<double>(total) / conc_seconds;
  const double modeled_batched = orc.stats().latency_percentile("total", 50.0);

  // --- Bitwise identity of the batched path. -------------------------------
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (batched_outputs[i].size() != sync_outputs[i].size() ||
        std::memcmp(batched_outputs[i].data(), sync_outputs[i].data(),
                    sync_outputs[i].size() * sizeof(double)) != 0) {
      ++mismatches;
    }
  }

  const ServingStatsSnapshot snap = orc.stats().snapshot();
  const double speedup = conc_rps / sync_rps;

  TextTable table({"mode", "requests", "wall (s)", "req/s",
                   "modeled online s/req (p50)"});
  table.add_row({"sync 1 thread (legacy path)", std::to_string(total),
                 TextTable::num(sync_seconds, 3), TextTable::num(sync_rps, 0),
                 TextTable::num(modeled_unbatched, 9)});
  table.add_row({"batched 8 threads", std::to_string(total),
                 TextTable::num(conc_seconds, 3), TextTable::num(conc_rps, 0),
                 TextTable::num(modeled_batched, 9)});
  std::cout << table.render() << "\n";

  std::cout << "throughput speedup:      " << TextTable::num(speedup, 2) << "x"
            << " (target >= 4x)\n"
            << "modeled latency ratio:   "
            << TextTable::num(modeled_unbatched / modeled_batched, 2)
            << "x lower per request with batching\n"
            << "batches executed:        " << snap.batches_executed
            << " (mean batch " << TextTable::num(snap.mean_batch_size(), 1) << ")\n"
            << "bitwise-identical rows:  " << (total - mismatches) << "/" << total
            << "\n";

  // Machine-readable result + the full observability state of run B: the
  // registry the ServingStats counters/histograms live in, plus span
  // aggregates from the tracer. CI smoke-gates this file for well-formedness
  // and for counter/snapshot agreement.
  {
    std::ofstream json("BENCH_serving.json");
    json << "{\n"
         << "  \"bench\": \"serving_throughput\",\n"
         << "  \"requests\": " << total << ",\n"
         << "  \"sync_rps\": " << TextTable::num(sync_rps, 1) << ",\n"
         << "  \"batched_rps\": " << TextTable::num(conc_rps, 1) << ",\n"
         << "  \"speedup\": " << TextTable::num(speedup, 3) << ",\n"
         << "  \"mean_batch\": " << TextTable::num(snap.mean_batch_size(), 2) << ",\n"
         << "  \"bitwise_identical\": " << (mismatches == 0 ? "true" : "false") << ",\n"
         << "  \"metrics\": ";
    obs::ExportOptions eo;
    eo.base_indent = 2;
    obs::export_json(json, orc.stats().metrics(), &orc.tracer(), eo);
    json << "\n}\n";
  }
  std::cout << "wrote BENCH_serving.json\n";

  // Standalone exports through the library writers (return values checked —
  // a silent half-written file is worse than a failed bench): the registry
  // as its own JSON document, and the Prometheus text exposition CI's
  // line-format smoke gate parses.
  const bool json_ok = obs::export_json_file("BENCH_serving.metrics.json",
                                             orc.stats().metrics(), &orc.tracer());
  const bool prom_ok =
      obs::export_prometheus_file("BENCH_serving.prom", orc.stats().metrics());
  if (!json_ok || !prom_ok) {
    std::cout << "FAIL: metrics export (json=" << json_ok << " prom=" << prom_ok
              << ")\n";
    return 1;
  }
  std::cout << "wrote BENCH_serving.metrics.json, BENCH_serving.prom\n";

  const bool ok = speedup >= 4.0 && mismatches == 0;
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
