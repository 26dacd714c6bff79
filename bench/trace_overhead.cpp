// Microbenchmarks for §3.1's tooling costs (google-benchmark):
//   * instrumentation overhead — traced vs plain execution of a kernel,
//   * trace-size reduction from loop compression,
//   * DDDG construction (one in-order pass over the trace).

#include <benchmark/benchmark.h>

#include <vector>

#include "trace/dddg.hpp"
#include "trace/features.hpp"
#include "trace/traced.hpp"

namespace {

using namespace ahn;
using namespace ahn::trace;

void run_traced_saxpy(TraceRecorder& rec, std::size_t n, bool use_loop_hints) {
  TracedArray x(rec, "x", std::vector<double>(n, 1.5), true);
  TracedArray y(rec, "y", std::vector<double>(n, 0.5), true);
  TracedScalar a(rec, "a", true, 2.0);
  rec.begin_region();
  if (use_loop_hints) rec.begin_loop();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = a * x[i] + y[i];
    if (use_loop_hints) rec.end_loop_iteration();
  }
  if (use_loop_hints) rec.end_loop();
  rec.end_region();
}

void BM_PlainSaxpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n, 1.5), y(n, 0.5);
  const double a = 2.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i] + y[i];
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlainSaxpy)->Arg(1024)->Arg(8192);

void BM_TracedSaxpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    TraceRecorder rec;
    run_traced_saxpy(rec, n, /*use_loop_hints=*/false);
    benchmark::DoNotOptimize(rec.instructions().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TracedSaxpy)->Arg(1024)->Arg(8192);

void BM_TracedSaxpyLoopCompressed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  double ratio = 1.0;
  for (auto _ : state) {
    TraceRecorder rec;
    run_traced_saxpy(rec, n, /*use_loop_hints=*/true);
    ratio = rec.compression_ratio();
    benchmark::DoNotOptimize(rec.instructions().data());
  }
  state.counters["trace_compression"] = ratio;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TracedSaxpyLoopCompressed)->Arg(1024)->Arg(8192);

/// Builds an uncompressed trace with varied per-iteration shape (so the
/// DDDG has real work at every index).
TraceRecorder divergent_trace(std::size_t n) {
  TraceRecorder rec;
  TracedArray x(rec, "x", std::vector<double>(n, 1.0), true);
  TracedArray y(rec, "y", n, true);
  TracedScalar acc(rec, "acc", true, 0.0);
  rec.begin_region();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      y[i] = x[i] * 2.0;
    } else {
      acc = acc + x[i];
      y[i] = x[i] + 1.0;
    }
  }
  rec.end_region();
  return rec;
}

void BM_DddgBuildSerial(benchmark::State& state) {
  const TraceRecorder rec = divergent_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const Dddg g = Dddg::build(rec);
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rec.instructions().size()));
}
BENCHMARK(BM_DddgBuildSerial)->Arg(2000)->Arg(20000);

void BM_FeatureIdentification(benchmark::State& state) {
  const TraceRecorder rec = divergent_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const FeatureReport rep = identify_features(rec);
    benchmark::DoNotOptimize(rep.input_width);
  }
}
BENCHMARK(BM_FeatureIdentification)->Arg(2000)->Arg(20000);

}  // namespace

BENCHMARK_MAIN();
