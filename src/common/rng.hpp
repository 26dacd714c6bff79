#pragma once
// Deterministic, fast random number generation (xoshiro256++) plus common
// distributions. All stochastic components of the framework draw from Rng so
// every experiment is reproducible from a single seed.

#include <cstdint>
#include <cmath>
#include <limits>
#include <vector>

namespace ahn {

/// xoshiro256++ 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Chosen over std::mt19937 for speed and small state; quality is more than
/// sufficient for workload generation and optimizer seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      si = z ^ (z >> 31);
    }
    has_cached_gauss_ = false;
  }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Marsaglia polar method (cached pair).
  double gaussian() noexcept {
    if (has_cached_gauss_) {
      has_cached_gauss_ = false;
      return cached_gauss_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    cached_gauss_ = v * f;
    has_cached_gauss_ = true;
    return u * f;
  }

  /// Normal with mean mu and standard deviation sigma.
  double gaussian(double mu, double sigma) noexcept { return mu + sigma * gaussian(); }

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// Fork a statistically independent child stream (for parallel workers).
  Rng fork() noexcept { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

  /// Advances the stream by `n` next_u64() draws (std engines' discard).
  void discard(std::uint64_t n) noexcept {
    for (; n > 0; --n) next_u64();
  }

  /// Same state: the two streams produce the same draws from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double cached_gauss_ = 0.0;
  bool has_cached_gauss_ = false;
};

}  // namespace ahn
