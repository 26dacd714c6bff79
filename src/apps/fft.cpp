#include "apps/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/flops.hpp"

namespace ahn::apps {

void fft_inplace(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  AHN_CHECK_MSG(n > 0 && (n & (n - 1)) == 0, "FFT size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const Complex wl(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }

  OpCounts c;
  // ~5 n log2(n) real FLOPs is the classic count for radix-2.
  const double logn = std::log2(static_cast<double>(n));
  c.flops = static_cast<std::uint64_t>(5.0 * static_cast<double>(n) * logn);
  c.bytes_read = sizeof(Complex) * n;
  c.bytes_written = sizeof(Complex) * n;
  FlopCounter::instance().add(c);
}

std::vector<double> fft_real(std::span<const double> input) {
  std::vector<Complex> data(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) data[i] = Complex(input[i], 0.0);
  fft_inplace(data);
  std::vector<double> out(2 * data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[2 * i] = data[i].real();
    out[2 * i + 1] = data[i].imag();
  }
  return out;
}

std::vector<double> fft_real_perforated(std::span<const double> input, double keep) {
  AHN_CHECK(keep > 0.0 && keep <= 1.0);
  const std::size_t n = input.size();
  AHN_CHECK(n > 0 && (n & (n - 1)) == 0);
  std::vector<Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = Complex(input[i], 0.0);

  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const auto total_stages =
      static_cast<std::size_t>(std::log2(static_cast<double>(n)));
  const auto run_stages = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(keep * static_cast<double>(total_stages))));
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n && stage < run_stages; len <<= 1, ++stage) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wl(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }

  // The radix-2 count of fft_inplace, for the stages that ran.
  OpCounts c;
  c.flops = static_cast<std::uint64_t>(5.0 * static_cast<double>(n) *
                                       static_cast<double>(stage));
  c.bytes_read = sizeof(Complex) * n;
  c.bytes_written = sizeof(Complex) * n;
  FlopCounter::instance().add(c);

  std::vector<double> out(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out[2 * i] = data[i].real();
    out[2 * i + 1] = data[i].imag();
  }
  return out;
}

std::vector<Complex> dft_reference(std::span<const Complex> input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      out[k] += input[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

}  // namespace ahn::apps
