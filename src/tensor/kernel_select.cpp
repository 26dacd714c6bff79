#include "tensor/kernel_select.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "tensor/gemm.hpp"

namespace ahn::ops {

const char* kernel_choice_name(KernelChoice c) noexcept {
  switch (c) {
    case KernelChoice::kFp32Fast: return "fp32_fast";
    case KernelChoice::kFp32Naive: return "fp32_naive";
    case KernelChoice::kInt8Dot: return "int8_dot";
    case KernelChoice::kInt8Row: return "int8_row";
  }
  return "?";
}

struct KernelSelector::Impl {
  using Key = std::tuple<std::size_t, std::size_t, std::size_t, bool>;
  mutable std::shared_mutex mu;
  std::map<Key, KernelChoice> cache;
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<int> reps{3};
};

namespace {

void fp32_naive(std::size_t m, std::size_t n, std::size_t k, const double* a,
                const double* b, double* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::fill(crow, crow + n, 0.0);
    for (std::size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      const double* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Repeat-until-budget timing: run the candidate enough iterations that the
// measurement is a few hundred microseconds even for tiny shapes, take the
// best of `reps` attempts to shed scheduler noise.
template <typename F>
double time_candidate(F&& fn, std::size_t flops_per_call, int reps) {
  constexpr double kTargetFlops = 2.0e6;
  const auto iters = std::max<std::size_t>(
      1, static_cast<std::size_t>(kTargetFlops / static_cast<double>(std::max<std::size_t>(flops_per_call, 1))));
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / static_cast<double>(iters));
  }
  return best;
}

}  // namespace

KernelSelector& KernelSelector::instance() {
  static KernelSelector sel;
  return sel;
}

KernelSelector::Impl* KernelSelector::impl() {
  static Impl storage;
  return &storage;
}
const KernelSelector::Impl* KernelSelector::impl() const {
  return const_cast<KernelSelector*>(this)->impl();
}

std::size_t KernelSelector::cache_size() const {
  std::shared_lock lock(impl()->mu);
  return impl()->cache.size();
}

std::uint64_t KernelSelector::probes() const noexcept { return impl()->probes.load(); }
std::uint64_t KernelSelector::hits() const noexcept { return impl()->hits.load(); }

void KernelSelector::clear() {
  std::unique_lock lock(impl()->mu);
  impl()->cache.clear();
  impl()->probes.store(0);
  impl()->hits.store(0);
}

void KernelSelector::set_probe_reps(int reps) {
  impl()->reps.store(std::max(1, reps));
}

KernelChoice KernelSelector::choose(std::size_t m, std::size_t n, std::size_t k,
                                    bool allow_int8) {
  Impl& s = *impl();
  const Impl::Key key{m, n, k, allow_int8};
  {
    std::shared_lock lock(s.mu);
    if (auto it = s.cache.find(key); it != s.cache.end()) {
      s.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  std::unique_lock lock(s.mu);
  if (auto it = s.cache.find(key); it != s.cache.end()) {
    s.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;  // raced with another prober
  }
  const KernelChoice choice = probe(m, n, k, allow_int8);
  s.cache.emplace(key, choice);
  s.probes.fetch_add(1, std::memory_order_relaxed);
  return choice;
}

KernelChoice KernelSelector::probe(std::size_t m, std::size_t n, std::size_t k,
                                   bool allow_int8) const {
  // Deterministic synthetic operands; the seed folds in the shape so every
  // probe is reproducible from the shape alone.
  Rng rng(0x9e3779b97f4a7c15ULL ^ (m * 1000003 + n * 1009 + k));
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  const std::size_t flops = 2 * m * n * k;
  const int reps = impl()->reps.load();
  volatile double sink = 0.0;

  double best_time = std::numeric_limits<double>::infinity();
  KernelChoice best = KernelChoice::kFp32Fast;
  auto consider = [&](KernelChoice cand, double t) {
    if (t < best_time) {
      best_time = t;
      best = cand;
    }
  };

  consider(KernelChoice::kFp32Fast,
           time_candidate(
               [&] {
                 detail::gemm(false, false, m, n, k, a.data(), b.data(), c.data(),
                              nullptr, EpilogueAct::None);
                 sink = sink + c[0];
               },
               flops, reps));
  consider(KernelChoice::kFp32Naive, time_candidate(
                                         [&] {
                                           fp32_naive(m, n, k, a.data(), b.data(), c.data());
                                           sink = sink + c[0];
                                         },
                                         flops, reps));

  if (allow_int8) {
    const quant::QuantParams aq = quant::params_from_range(-1.0, 1.0);
    const quant::QuantParams wq = quant::params_symmetric(1.0);
    std::vector<std::int16_t> a16(m * k), w16(k * n), wt16(n * k);
    quant::quantize(a, aq, a16.data());
    quant::quantize(b, wq, w16.data());
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) wt16[j * k + p] = w16[p * n + j];
    }
    std::vector<std::int32_t> colsum(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t sum = 0;
      for (std::size_t p = 0; p < k; ++p) sum += wt16[j * k + p];
      colsum[j] = sum;
    }
    // Probe the quantized kernels with the activation-quantize pass included
    // so the decision reflects the true served cost of the int8 path.
    consider(KernelChoice::kInt8Dot,
             time_candidate(
                 [&] {
                   quant::quantize(a, aq, a16.data());
                   quant::i8_gemm(quant::Int8Kernel::Dot, m, n, k, a16.data(), wt16.data(),
                                  w16.data(), colsum.data(), aq, wq, nullptr,
                                  EpilogueAct::None, c.data());
                   sink = sink + c[0];
                 },
                 flops, reps));
    consider(KernelChoice::kInt8Row,
             time_candidate(
                 [&] {
                   quant::quantize(a, aq, a16.data());
                   quant::i8_gemm(quant::Int8Kernel::Row, m, n, k, a16.data(), wt16.data(),
                                  w16.data(), colsum.data(), aq, wq, nullptr,
                                  EpilogueAct::None, c.data());
                   sink = sink + c[0];
                 },
                 flops, reps));
  }
  (void)sink;
  return best;
}

}  // namespace ahn::ops
