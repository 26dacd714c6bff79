// GEMM kernel microbenchmark: blocked/packed kernels (GemmImpl::Fast) vs the
// retained naive reference (GemmImpl::Naive) on the paper's surrogate-sized
// square matmuls. Prints a throughput table, writes machine-readable results
// to BENCH_kernels.json, and exits non-zero when the speedup gates fail so CI
// can gate on it.
//
// Gates (geometric mean over the measured sizes):
//   single-thread   >= 2.0x         (pure kernel win, no parallelism)
//   all threads     >= min(4.0x, 2.0 * omp_get_max_threads())
// The full-thread target is capped below 4x on machines with too few cores to
// reach it from scaling; on a 1-core container both gates coincide at 2x.
// The all-thread cells are timed after every single-thread cell, on a team
// warmed at the all-thread budget.
//
// A table of the three training products at the offline build's shapes
// (single thread) is printed and written without a gate.
//
// `kernel_microbench --grain` instead measures the work at which forking an
// OpenMP team starts to pay (the basis of kParallelGrain in
// common/parallel.hpp) and exits without gating; see run_grain below.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_select.hpp"
#include "tensor/ops.hpp"
#include "tensor/quantize.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace ahn;

struct SizeResult {
  std::size_t n = 0;
  double naive_seconds = 0.0;   // best-of-reps, single thread
  double fast_1t_seconds = 0.0;
  double fast_mt_seconds = 0.0; // best-of-reps, all threads
  [[nodiscard]] double speedup_1t() const { return naive_seconds / fast_1t_seconds; }
  [[nodiscard]] double speedup_mt() const { return naive_seconds / fast_mt_seconds; }
  [[nodiscard]] double gflops_mt() const {
    return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n) / fast_mt_seconds / 1e9;
  }
};

volatile double g_sink = 0.0;  // keeps the products live under -O3

/// Best wall-clock over `reps` runs of C = A * B at the current thread count.
double best_of(const Tensor& a, const Tensor& b, std::size_t reps) {
  g_sink = ops::matmul(a, b).at(0, 0);  // untimed warm-up: pack buffers, pages
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const Timer t;
    const Tensor c = ops::matmul(a, b);
    best = std::min(best, t.seconds());
    g_sink = c.at(0, 0);
  }
  return best;
}

double geomean(const std::vector<double>& xs) {
  double acc = 0.0;
  for (const double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

// ----------------------------------------------------- skinny served shapes
// The shapes serving actually runs: batch M x small-hidden (N, K) dense
// forwards, where the Goto blocking was never the design point. Measured
// single-thread against the per-shape KernelSelector's pick (ROADMAP item 5;
// int8 picks include the activation-quantize pass, i.e. true served cost).

struct SkinnyResult {
  std::size_t m = 0, n = 0, k = 0;
  double fast_seconds = 0.0;      // fp32 blocked path
  double selected_seconds = 0.0;  // KernelSelector's pick
  ops::KernelChoice choice = ops::KernelChoice::kFp32Fast;
  [[nodiscard]] double speedup() const { return fast_seconds / selected_seconds; }
};

/// Best per-call seconds of `fn` with enough inner iterations to make each
/// measurement a few hundred microseconds.
template <typename F>
double best_of_calls(F&& fn, std::size_t flops_per_call, std::size_t reps) {
  const auto iters = std::max<std::size_t>(
      1, static_cast<std::size_t>(4.0e6 / static_cast<double>(std::max<std::size_t>(flops_per_call, 1))));
  fn();  // warm-up
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const Timer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / static_cast<double>(iters));
  }
  return best;
}

SkinnyResult run_skinny(std::size_t m, std::size_t n, std::size_t k, std::size_t reps) {
  Rng rng(101 + m * 131 + n * 7 + k);
  std::vector<double> a(m * k), w(k * n), bias(n), c(m * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  for (auto& v : bias) v = rng.uniform(-0.5, 0.5);

  SkinnyResult r;
  r.m = m;
  r.n = n;
  r.k = k;
  const std::size_t flops = 2 * m * n * k;

  r.fast_seconds = best_of_calls(
      [&] {
        ops::detail::gemm(false, false, m, n, k, a.data(), w.data(), c.data(),
                          bias.data(), ops::EpilogueAct::None);
        g_sink = c[0];
      },
      flops, reps);

  r.choice = ops::KernelSelector::instance().choose(m, n, k, /*allow_int8=*/true);
  if (ops::kernel_is_int8(r.choice)) {
    const quant::QuantParams aq = quant::params_from_range(-1.0, 1.0);
    const quant::QuantParams wq = quant::params_symmetric(1.0);
    std::vector<std::int16_t> a16(m * k), w16(k * n), wt16(n * k);
    quant::quantize(w, wq, w16.data());
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) wt16[j * k + p] = w16[p * n + j];
    }
    std::vector<std::int32_t> colsum(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) colsum[j] += wt16[j * k + p];
    }
    const auto kind = r.choice == ops::KernelChoice::kInt8Row ? quant::Int8Kernel::Row
                                                              : quant::Int8Kernel::Dot;
    r.selected_seconds = best_of_calls(
        [&] {
          quant::quantize(a, aq, a16.data());  // served cost includes this pass
          quant::i8_gemm(kind, m, n, k, a16.data(), wt16.data(), w16.data(),
                         colsum.data(), aq, wq, bias.data(), ops::EpilogueAct::None,
                         c.data());
          g_sink = c[0];
        },
        flops, reps);
  } else if (r.choice == ops::KernelChoice::kFp32Naive) {
    r.selected_seconds = best_of_calls(
        [&] {
          for (std::size_t i = 0; i < m; ++i) {
            double* crow = c.data() + i * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] = bias[j];
            const double* arow = a.data() + i * k;
            for (std::size_t p = 0; p < k; ++p) {
              const double av = arow[p];
              const double* wrow = w.data() + p * n;
              for (std::size_t j = 0; j < n; ++j) crow[j] += av * wrow[j];
            }
          }
          g_sink = c[0];
        },
        flops, reps);
  } else {
    r.selected_seconds = r.fast_seconds;
  }
  return r;
}

// ------------------------------------------------------- training products
// The three products of one dense layer's training step, at the shapes the
// offline build runs most: a 32-row batch through a 32-wide hidden layer
// (k = 32 and k = 8), and the Canneal autoencoder's decoder (32 x 37 x 96).
// NN is the forward pass, TN the weight gradient and NT the input gradient.
// Single thread, per-call best; printed and written, not gated.

struct TrainingResult {
  std::size_t m = 0, n = 0, k = 0;
  double nn_seconds = 0.0, tn_seconds = 0.0, nt_seconds = 0.0;
};

TrainingResult run_training(std::size_t m, std::size_t n, std::size_t k, std::size_t reps) {
  Rng rng(7 + m * 131 + n * 7 + k);
  // a is read as (m x k) or (k x m), b as (k x n) or (n x k): same sizes.
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const std::size_t flops = 2 * m * n * k;
  const auto time = [&](bool a_trans, bool b_trans) {
    return best_of_calls(
        [&] {
          ops::detail::gemm(a_trans, b_trans, m, n, k, a.data(), b.data(), c.data(),
                            nullptr, ops::EpilogueAct::None);
          g_sink = c[0];
        },
        flops, reps);
  };
  TrainingResult r;
  r.m = m;
  r.n = n;
  r.k = k;
  r.nn_seconds = time(false, false);
  r.tn_seconds = time(true, false);
  r.nt_seconds = time(false, true);
  return r;
}

// ------------------------------------------------------------ team grain
// A row-parallel small GEMM (k = n = 64, so each row is 4096 multiply-adds
// on the unpacked path) at growing row counts, run through parallel_for on
// one thread and on the whole team. The per-call median of back-to-back
// calls (threads warm, as in a training loop) shows the work from which the
// team beats one thread at every larger size: kParallelGrain. A last line
// times regions that alternate between the whole team and half of it, the
// reason parallel_for never sizes a team in between.

/// Median per-call seconds of `fn` over `calls` back-to-back calls.
template <typename F>
double median_call_seconds(F&& fn, std::size_t calls) {
  std::vector<double> t(calls);
  fn();  // warm-up: forks the team once
  for (double& v : t) {
    const Timer timer;
    fn();
    v = timer.seconds();
  }
  std::nth_element(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(calls / 2), t.end());
  return t[calls / 2];
}

int run_grain() {
  constexpr std::size_t kDim = 64;  // k = n: one row is kDim^2 multiply-adds
  const int max_threads = omp_get_max_threads();
  if (max_threads < 2) {
    std::cout << "one thread: no team to size\n";
    return 0;
  }
  const std::size_t calls = std::max<std::size_t>(200, bench::scaled(2000, 200));
  Rng rng(29);
  std::vector<double> b(kDim * kDim);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> a(256 * kDim), c(256 * kDim);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  // m rows through the seam at the current budget; a work estimate of one
  // grain always forks the budget's team.
  const auto rows = [&](std::size_t m) {
    parallel_for(kParallelGrain, m, [&](std::size_t i) {
      ops::detail::gemm(false, false, 1, kDim, kDim, a.data() + i * kDim, b.data(),
                        c.data() + i * kDim, nullptr, ops::EpilogueAct::None);
    });
    g_sink = c[0];
  };

  TextTable table({"rows", "work (mul-add)", "1 thread (us)",
                   std::to_string(max_threads) + " threads (us)"});
  std::size_t wins_from = 0;  // work from which the team wins at every size
  for (std::size_t m = 2; m <= 256; m *= 2) {
    omp_set_num_threads(1);
    const double serial = median_call_seconds([&] { rows(m); }, calls);
    omp_set_num_threads(max_threads);
    const double team = median_call_seconds([&] { rows(m); }, calls);
    const std::size_t work = m * kDim * kDim;
    if (team >= serial) {
      wins_from = 0;
    } else if (wins_from == 0) {
      wins_from = work;
    }
    table.add_row({std::to_string(m), std::to_string(work), TextTable::num(serial * 1e6, 2),
                   TextTable::num(team * 1e6, 2)});
  }
  std::cout << table.render() << "\n"
            << "team beats 1 thread from " << wins_from << " multiply-adds on\n"
            << "kParallelGrain: " << kParallelGrain << "\n";

  // Shrinking a libgomp team ends the surplus pool threads; growing it back
  // starts new ones.
  constexpr std::size_t kChurnRows = 8;
  const double constant = median_call_seconds([&] { rows(kChurnRows); }, calls);
  bool half = false;
  const double alternating = median_call_seconds(
      [&] {
        omp_set_num_threads(half ? std::max(1, max_threads / 2) : max_threads);
        half = !half;
        rows(kChurnRows);
      },
      calls);
  omp_set_num_threads(max_threads);
  std::cout << kChurnRows << " rows, " << max_threads << " threads every call: "
            << TextTable::num(constant * 1e6, 2) << " us; alternating " << max_threads
            << " and " << std::max(1, max_threads / 2)
            << " threads: " << TextTable::num(alternating * 1e6, 2) << " us\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--grain") return run_grain();
  bench::print_header("GEMM kernel microbench: blocked+packed vs naive",
                      "the training/inference kernel cost model (§5, §7.3)");

  const int max_threads = omp_get_max_threads();
  const std::size_t reps = std::max<std::size_t>(2, bench::scaled(5, 2));
  const std::vector<std::size_t> sizes{256, 512, 1024};

  const auto operands = [](std::size_t n) {
    Rng rng(17 + n);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    return std::make_pair(std::move(a), std::move(b));
  };
  std::vector<SizeResult> results;
  omp_set_num_threads(1);
  for (const std::size_t n : sizes) {
    const auto [a, b] = operands(n);
    SizeResult r;
    r.n = n;
    ops::set_gemm_impl(ops::GemmImpl::Naive);
    r.naive_seconds = best_of(a, b, reps);
    ops::set_gemm_impl(ops::GemmImpl::Fast);
    r.fast_1t_seconds = best_of(a, b, reps);
    r.fast_mt_seconds = r.fast_1t_seconds;
    results.push_back(r);
  }
  omp_set_num_threads(max_threads);
  if (max_threads > 1) {
    // The all-thread cells run after every 1T cell, on a team warmed at the
    // all-thread budget until one untimed call of the smallest product beats
    // its 1T time (for at most 2 s). On a 4-vCPU VM that had sat idle, the
    // first ~1 s of all-thread regions each stalled ~16 ms, whatever the
    // kernel; a kernel slower on all threads still fails the gate below.
    const auto [a, b] = operands(sizes.front());
    const Timer warm;
    for (double call = 1e300;
         call > results.front().fast_1t_seconds && warm.seconds() < 2.0;) {
      const Timer t;
      g_sink = ops::matmul(a, b).at(0, 0);
      call = t.seconds();
    }
    for (SizeResult& r : results) {
      const auto [an, bn] = operands(r.n);
      r.fast_mt_seconds = best_of(an, bn, reps);
    }
  }

  TextTable table({"n", "naive 1T (s)", "fast 1T (s)", "fast all-T (s)",
                   "speedup 1T", "speedup all-T", "GFLOP/s"});
  std::vector<double> sp1, spm;
  for (const SizeResult& r : results) {
    sp1.push_back(r.speedup_1t());
    spm.push_back(r.speedup_mt());
    table.add_row({std::to_string(r.n), TextTable::num(r.naive_seconds, 4),
                   TextTable::num(r.fast_1t_seconds, 4),
                   TextTable::num(r.fast_mt_seconds, 4),
                   TextTable::num(r.speedup_1t(), 2) + "x",
                   TextTable::num(r.speedup_mt(), 2) + "x",
                   TextTable::num(r.gflops_mt(), 1)});
  }
  std::cout << table.render() << "\n";

  const double geo_1t = geomean(sp1);
  const double geo_mt = geomean(spm);
  const double target_1t = 2.0;
  const double target_mt = std::min(4.0, 2.0 * static_cast<double>(max_threads));
  std::cout << "threads:                 " << max_threads << "\n"
            << "geomean speedup 1T:      " << TextTable::num(geo_1t, 2)
            << "x (target >= " << TextTable::num(target_1t, 1) << "x)\n"
            << "geomean speedup all-T:   " << TextTable::num(geo_mt, 2)
            << "x (target >= " << TextTable::num(target_mt, 1) << "x)\n";

  // Skinny served-shape suite: single-thread, per-shape selector vs the
  // blocked fp32 path it would otherwise always take.
  omp_set_num_threads(1);
  ops::set_gemm_impl(ops::GemmImpl::Fast);
  const std::vector<std::size_t> skinny_m{1, 8, 32, 128};
  const std::vector<std::pair<std::size_t, std::size_t>> skinny_nk{
      {16, 16}, {64, 64}, {128, 128}, {32, 128}, {128, 32}};
  std::vector<SkinnyResult> skinny;
  for (const std::size_t m : skinny_m) {
    for (const auto& [n, k] : skinny_nk) skinny.push_back(run_skinny(m, n, k, reps));
  }
  omp_set_num_threads(max_threads);

  TextTable skinny_table({"M", "N", "K", "fp32-fast (s)", "selected (s)",
                          "kernel", "speedup"});
  std::vector<double> skinny_sp;
  for (const SkinnyResult& r : skinny) {
    skinny_sp.push_back(r.speedup());
    skinny_table.add_row({std::to_string(r.m), std::to_string(r.n), std::to_string(r.k),
                          TextTable::num(r.fast_seconds, 4),
                          TextTable::num(r.selected_seconds, 4),
                          ops::kernel_choice_name(r.choice),
                          TextTable::num(r.speedup(), 2) + "x"});
  }
  std::cout << "\nskinny served shapes (single thread, selector vs fp32 fast):\n"
            << skinny_table.render() << "\n";
  const double skinny_geo = geomean(skinny_sp);
  const double skinny_target = 1.0;  // selector must never lose to always-fast
  std::cout << "geomean speedup skinny:  " << TextTable::num(skinny_geo, 2)
            << "x (target >= " << TextTable::num(skinny_target, 2) << "x)\n";

  omp_set_num_threads(1);
  std::vector<TrainingResult> training;
  for (const auto& [m, n, k] : {std::tuple<std::size_t, std::size_t, std::size_t>{32, 32, 32},
                                {32, 32, 8},
                                {32, 37, 96}}) {
    training.push_back(run_training(m, n, k, reps));
  }
  omp_set_num_threads(max_threads);
  TextTable training_table({"M", "N", "K", "NN (us)", "TN (us)", "NT (us)"});
  for (const TrainingResult& r : training) {
    training_table.add_row({std::to_string(r.m), std::to_string(r.n), std::to_string(r.k),
                            TextTable::num(r.nn_seconds * 1e6, 2),
                            TextTable::num(r.tn_seconds * 1e6, 2),
                            TextTable::num(r.nt_seconds * 1e6, 2)});
  }
  std::cout << "\ntraining products (single thread, no gate):\n"
            << training_table.render() << "\n";

  const bool ok =
      geo_1t >= target_1t && geo_mt >= target_mt && skinny_geo >= skinny_target;

  std::ofstream json("BENCH_kernels.json");
  json << "{\n  \"threads\": " << max_threads << ",\n  \"reps\": " << reps
       << ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"n\": " << r.n << ", \"naive_seconds\": " << r.naive_seconds
         << ", \"fast_1t_seconds\": " << r.fast_1t_seconds
         << ", \"fast_mt_seconds\": " << r.fast_mt_seconds
         << ", \"speedup_1t\": " << r.speedup_1t()
         << ", \"speedup_mt\": " << r.speedup_mt() << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"skinny\": [\n";
  for (std::size_t i = 0; i < skinny.size(); ++i) {
    const SkinnyResult& r = skinny[i];
    json << "    {\"m\": " << r.m << ", \"n\": " << r.n << ", \"k\": " << r.k
         << ", \"fast_seconds\": " << r.fast_seconds
         << ", \"selected_seconds\": " << r.selected_seconds << ", \"kernel\": \""
         << ops::kernel_choice_name(r.choice) << "\", \"speedup\": " << r.speedup()
         << "}" << (i + 1 < skinny.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"training\": [\n";
  for (std::size_t i = 0; i < training.size(); ++i) {
    const TrainingResult& r = training[i];
    json << "    {\"m\": " << r.m << ", \"n\": " << r.n << ", \"k\": " << r.k
         << ", \"nn_seconds\": " << r.nn_seconds << ", \"tn_seconds\": " << r.tn_seconds
         << ", \"nt_seconds\": " << r.nt_seconds << "}"
         << (i + 1 < training.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"geomean_speedup_1t\": " << geo_1t
       << ",\n  \"geomean_speedup_all_threads\": " << geo_mt
       << ",\n  \"geomean_speedup_skinny\": " << skinny_geo
       << ",\n  \"target_1t\": " << target_1t
       << ",\n  \"target_all_threads\": " << target_mt
       << ",\n  \"target_skinny\": " << skinny_target
       << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  json.close();
  std::cout << "wrote BENCH_kernels.json\n";

  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
