// Graceful-degradation bench for the reliability layer (docs/RELIABILITY.md).
//
// Drives the same 8-thread micro-batching workload as serving_throughput
// twice over identical inputs:
//   A. fault-free  — baseline wall-clock throughput;
//   B. faulty      — ~1% injected transient faults (plus occasional dropped
//                    batches and NaN-corrupted outputs) through the seeded
//                    FaultInjector, with the default retry policy and the
//                    original-code fallback absorbing what retries cannot.
//
// The gate: under injected faults EVERY request must still complete
// successfully (retries + QoI fallback make the faults invisible to
// clients), and throughput must stay within 2x of the fault-free run.
// Exits non-zero otherwise, so CI can gate on graceful degradation.

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
#include "runtime/fault_injector.hpp"
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
  // Original-code path for QoI misses (paper §7.1): here a cheap exact stub —
  // the bench measures serving resilience, not application quality.
  m->fallback = [out](const Tensor& row_in) {
    Tensor exact({1, out});
    for (double& v : exact.row(0)) v = row_in.at(0, 0);
    return exact;
  };
  return m;
}

struct RunResult {
  double seconds = 0.0;
  std::size_t completed = 0;
  std::size_t failed = 0;
};

RunResult drive(runtime::Orchestrator& orc, const std::vector<Tensor>& rows,
                std::size_t threads_n) {
  const std::size_t per_thread = rows.size() / threads_n;
  std::vector<std::size_t> completed(threads_n, 0), failed(threads_n, 0);
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(threads_n);
  for (std::size_t t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<Result<Tensor>>> futures;
      futures.reserve(per_thread);
      for (std::size_t i = 0; i < per_thread; ++i) {
        futures.push_back(
            orc.run_model_batched("surrogate", rows[t * per_thread + i]));
      }
      orc.flush_batches();  // don't strand this thread's tail partial batch
      for (auto& f : futures) {
        if (f.get().is_ok()) {
          ++completed[t];
        } else {
          ++failed[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  RunResult r;
  r.seconds = timer.seconds();
  for (std::size_t t = 0; t < threads_n; ++t) {
    r.completed += completed[t];
    r.failed += failed[t];
  }
  return r;
}

}  // namespace

int main() {
  bench::print_header("Graceful degradation: ~1% injected faults vs fault-free",
                      "the reliability layer's retry + fallback contract");

  constexpr std::size_t kInFeatures = 16;
  constexpr std::size_t kOutFeatures = 4;
  constexpr std::size_t kThreads = 8;
  const std::size_t per_thread = bench::scaled(20000, 2000) / kThreads;
  const std::size_t total = per_thread * kThreads;

  runtime::OrchestratorOptions opts;
  opts.max_batch = 64;
  opts.batch_flusher = true;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff_seconds = 10e-6;
  runtime::Orchestrator orc(runtime::DeviceModel{}, opts);
  orc.set_model("surrogate", make_model(kInFeatures, kOutFeatures, 32));

  std::vector<Tensor> rows;
  rows.reserve(total);
  Rng rng(3);
  for (std::size_t i = 0; i < total; ++i) {
    rows.push_back(Tensor::randn({1, kInFeatures}, rng));
  }

  // --- A. fault-free baseline. ---------------------------------------------
  const RunResult clean = drive(orc, rows, kThreads);

  // --- B. ~1% transient faults + drops + NaN corruption. -------------------
  orc.stats().reset();
  runtime::FaultSpec spec;
  spec.transient_prob = 0.01;   // per phase draw, the headline ~1%
  spec.batch_drop_prob = 0.005;
  spec.nan_prob = 0.002;        // absorbed by the QoI fallback path
  spec.latency_spike_prob = 0.002;
  spec.latency_spike_seconds = 50e-6;
  auto injector = std::make_shared<runtime::FaultInjector>(spec, /*seed=*/1234);
  orc.set_fault_injector(injector);
  const RunResult faulty = drive(orc, rows, kThreads);
  orc.set_fault_injector(nullptr);
  orc.drain();

  const ServingStatsSnapshot snap = orc.stats().snapshot();
  const double clean_rps = static_cast<double>(total) / clean.seconds;
  const double faulty_rps = static_cast<double>(total) / faulty.seconds;
  const double slowdown = clean_rps / faulty_rps;

  TextTable table({"mode", "requests", "completed", "failed", "wall (s)", "req/s"});
  table.add_row({"fault-free", std::to_string(total), std::to_string(clean.completed),
                 std::to_string(clean.failed), TextTable::num(clean.seconds, 3),
                 TextTable::num(clean_rps, 0)});
  table.add_row({"~1% faults", std::to_string(total), std::to_string(faulty.completed),
                 std::to_string(faulty.failed), TextTable::num(faulty.seconds, 3),
                 TextTable::num(faulty_rps, 0)});
  std::cout << table.render() << "\n";

  std::cout << "faults injected:   " << snap.faults_injected;
  const std::string kind_prefix = "serving.fault.";
  for (const auto& [name, n] : orc.stats().metrics().snapshot().counters) {
    if (name.starts_with(kind_prefix)) {
      std::cout << "  " << name.substr(kind_prefix.size()) << "=" << n;
    }
  }
  std::cout << "\nretries:           " << snap.retries
            << "\nQoI fallbacks:     " << snap.qoi_fallbacks
            << "\nthroughput ratio:  " << TextTable::num(slowdown, 2)
            << "x slower under faults (limit 2x)\n";

  // Machine-readable result for the faulty run: the fault/retry/QoI counters
  // in the JSON come from the same registry instruments the snapshot above
  // read, so the two can be cross-checked.
  {
    std::ofstream json("BENCH_fault_recovery.json");
    json << "{\n"
         << "  \"bench\": \"fault_recovery\",\n"
         << "  \"requests\": " << total << ",\n"
         << "  \"completed_under_faults\": " << faulty.completed << ",\n"
         << "  \"faults_injected\": " << snap.faults_injected << ",\n"
         << "  \"retries\": " << snap.retries << ",\n"
         << "  \"qoi_fallbacks\": " << snap.qoi_fallbacks << ",\n"
         << "  \"slowdown\": " << TextTable::num(slowdown, 3) << ",\n"
         << "  \"metrics\": ";
    obs::ExportOptions eo;
    eo.base_indent = 2;
    obs::export_json(json, orc.stats().metrics(), &orc.tracer(), eo);
    json << "\n}\n";
  }
  std::cout << "wrote BENCH_fault_recovery.json\n";

  // Standalone library-writer exports (bool-checked) — JSON document plus
  // the Prometheus exposition the CI smoke gate parses.
  const bool json_ok = obs::export_json_file("BENCH_fault_recovery.metrics.json",
                                             orc.stats().metrics(), &orc.tracer());
  const bool prom_ok = obs::export_prometheus_file("BENCH_fault_recovery.prom",
                                                   orc.stats().metrics());
  if (!json_ok || !prom_ok) {
    std::cout << "FAIL: metrics export (json=" << json_ok << " prom=" << prom_ok
              << ")\n";
    return 1;
  }
  std::cout << "wrote BENCH_fault_recovery.metrics.json, BENCH_fault_recovery.prom\n";

  const bool all_complete = clean.failed == 0 && faulty.failed == 0 &&
                            faulty.completed == total;
  const bool within_budget = slowdown <= 2.0;
  if (!all_complete) std::cout << "FAIL: requests were lost under injected faults\n";
  if (!within_budget) std::cout << "FAIL: degradation exceeded the 2x budget\n";
  const bool ok = all_complete && within_budget;
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
