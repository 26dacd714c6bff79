#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ahn::quant {

namespace {

[[nodiscard]] bool usable_range(double lo, double hi) noexcept {
  return std::isfinite(lo) && std::isfinite(hi) && hi > lo &&
         (hi - lo) > std::numeric_limits<double>::min() * 255.0;
}

}  // namespace

QuantParams params_from_range(double lo, double hi) noexcept {
  // The affine grid must contain the real zero exactly: padded rows, ReLU
  // outputs and sketch defaults all produce literal 0.0 and dequantizing it
  // to anything else would bias every downstream sum.
  lo = std::min(lo, 0.0);
  hi = std::max(hi, 0.0);
  if (!usable_range(lo, hi)) return {};  // identity guard (satellite: zero-range)
  QuantParams q;
  q.scale = (hi - lo) / static_cast<double>(kQmax - kQmin);
  const long long zp = std::llround(static_cast<double>(kQmin) - lo / q.scale);
  q.zero_point = static_cast<std::int32_t>(std::clamp<long long>(zp, kQmin, kQmax));
  return q;
}

QuantParams params_symmetric(double max_abs) noexcept {
  if (!std::isfinite(max_abs) ||
      max_abs <= std::numeric_limits<double>::min() * static_cast<double>(kQmax)) {
    return {};  // identity guard (constant-zero weight tensor)
  }
  QuantParams q;
  q.scale = max_abs / static_cast<double>(kQmax);
  q.zero_point = 0;
  return q;
}

namespace {

// Same expression as quantize_value so scalar and bulk paths agree bitwise;
// mul + nearbyint + double-domain clamp is a straight-line vectorizable body.
template <typename Int>
void quantize_to(std::span<const double> in, const QuantParams& q, Int* out) noexcept {
  const double inv = 1.0 / q.scale;
  const auto zp = static_cast<double>(q.zero_point);
  constexpr auto lo = static_cast<double>(kQmin);
  constexpr auto hi = static_cast<double>(kQmax);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double r = std::nearbyint(in[i] * inv) + zp;
    out[i] = static_cast<Int>(std::max(lo, std::min(hi, r)));
  }
}

}  // namespace

void quantize(std::span<const double> in, const QuantParams& q, std::int8_t* out) noexcept {
  quantize_to(in, q, out);
}

void quantize(std::span<const double> in, const QuantParams& q, std::int16_t* out) noexcept {
  quantize_to(in, q, out);
}

const char* calib_method_name(CalibMethod m) noexcept {
  switch (m) {
    case CalibMethod::MinMax: return "minmax";
    case CalibMethod::Percentile: return "percentile";
    case CalibMethod::Entropy: return "entropy";
  }
  return "?";
}

// --------------------------------------------------------------- Calibrator

Calibrator::Calibrator() : hist_(kBins, 0) {}

void Calibrator::grow_to(double abs_value) {
  // Double the radius until the sample fits; merging bin pairs keeps every
  // prior count in the bin that contains its old interval, so the growth
  // order (and thus the final histogram) depends only on the max |x| seen
  // so far — deterministic for a fixed observation stream.
  while (abs_value >= radius_) {
    std::vector<std::uint64_t> merged(kBins, 0);
    for (std::size_t b = 0; b < kBins; ++b) {
      // Old bin b spans [-R + b*w, -R + (b+1)*w); under radius 2R the same
      // interval lands in bin (kBins/2 + b) / 2.
      merged[(kBins / 2 + b) / 2] += hist_[b];
    }
    hist_ = std::move(merged);
    radius_ *= 2.0;
  }
}

void Calibrator::observe(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) continue;  // poisoned rows must not wedge the range
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    grow_to(std::abs(v));
    const double w = 2.0 * radius_ / static_cast<double>(kBins);
    auto b = static_cast<std::size_t>((v + radius_) / w);
    if (b >= kBins) b = kBins - 1;  // v == radius_ after rounding
    ++hist_[b];
  }
}

std::pair<double, double> Calibrator::percentile_range(double keep) const {
  // Two-sided: walk tail mass in from each end until (1-keep)/2 is clipped
  // on each side. Bin edges are deterministic functions of radius_.
  const double w = 2.0 * radius_ / static_cast<double>(kBins);
  const auto tail = static_cast<std::uint64_t>(
      static_cast<double>(count_) * (1.0 - keep) * 0.5);
  std::uint64_t acc = 0;
  std::size_t lo_bin = 0;
  while (lo_bin + 1 < kBins && acc + hist_[lo_bin] <= tail) acc += hist_[lo_bin++];
  acc = 0;
  std::size_t hi_bin = kBins - 1;
  while (hi_bin > lo_bin && acc + hist_[hi_bin] <= tail) acc += hist_[hi_bin--];
  const double lo = -radius_ + static_cast<double>(lo_bin) * w;
  const double hi = -radius_ + static_cast<double>(hi_bin + 1) * w;
  // Never widen past the exact observed extrema.
  return {std::max(lo, min_), std::min(hi, max_)};
}

double Calibrator::entropy_threshold() const {
  // TensorRT-style KL sweep over the folded |x| histogram: for each
  // candidate clip T (a bin edge), compare the clipped distribution P
  // against its int8-requantized approximation Q and keep the T minimizing
  // KL(P || Q). Integer bin counts + a fixed sweep order keep this
  // bit-deterministic.
  constexpr std::size_t kLevels = 128;  // |x| quantizes onto 128 magnitudes
  const std::size_t half = kBins / 2;
  std::vector<double> folded(half, 0.0);
  for (std::size_t b = 0; b < half; ++b) {
    folded[b] = static_cast<double>(hist_[half + b] + hist_[half - 1 - b]);
  }
  const double w = 2.0 * radius_ / static_cast<double>(kBins);

  double best_t = radius_;
  double best_kl = std::numeric_limits<double>::infinity();
  for (std::size_t t = kLevels; t <= half; t += 8) {
    // P: first t folded bins, outliers absorbed into the last bin.
    std::vector<double> p(folded.begin(), folded.begin() + static_cast<std::ptrdiff_t>(t));
    double outliers = 0.0;
    for (std::size_t b = t; b < half; ++b) outliers += folded[b];
    p[t - 1] += outliers;
    // Q: P collapsed to kLevels buckets then re-expanded uniformly over the
    // non-empty source bins of each bucket.
    std::vector<double> q(t, 0.0);
    const double per = static_cast<double>(t) / static_cast<double>(kLevels);
    for (std::size_t l = 0; l < kLevels; ++l) {
      const auto start = static_cast<std::size_t>(static_cast<double>(l) * per);
      auto end = static_cast<std::size_t>(static_cast<double>(l + 1) * per);
      end = std::min(std::max(end, start + 1), t);
      double mass = 0.0;
      std::size_t nonzero = 0;
      for (std::size_t b = start; b < end; ++b) {
        mass += p[b];
        if (p[b] > 0.0) ++nonzero;
      }
      if (nonzero == 0) continue;
      const double share = mass / static_cast<double>(nonzero);
      for (std::size_t b = start; b < end; ++b) {
        if (p[b] > 0.0) q[b] = share;
      }
    }
    double psum = 0.0, qsum = 0.0;
    for (std::size_t b = 0; b < t; ++b) { psum += p[b]; qsum += q[b]; }
    if (psum <= 0.0 || qsum <= 0.0) continue;
    double kl = 0.0;
    for (std::size_t b = 0; b < t; ++b) {
      if (p[b] <= 0.0) continue;
      const double pp = p[b] / psum;
      const double qq = q[b] > 0.0 ? q[b] / qsum : 1e-12;
      kl += pp * std::log(pp / qq);
    }
    if (kl < best_kl) {
      best_kl = kl;
      best_t = static_cast<double>(t) * w;
    }
  }
  return best_t;
}

QuantParams Calibrator::params(const CalibOptions& opts) const {
  if (count_ == 0) return {};  // nothing observed -> identity
  double lo = min_, hi = max_;
  switch (opts.method) {
    case CalibMethod::MinMax:
      break;
    case CalibMethod::Percentile: {
      const double keep = std::clamp(opts.percentile / 100.0, 0.0, 1.0);
      std::tie(lo, hi) = percentile_range(keep);
      break;
    }
    case CalibMethod::Entropy: {
      const double t = std::min(entropy_threshold(), std::max(std::abs(min_), std::abs(max_)));
      lo = std::max(min_, -t);
      hi = std::min(max_, t);
      break;
    }
  }
  if (opts.symmetric) return params_symmetric(std::max(std::abs(lo), std::abs(hi)));
  return params_from_range(lo, hi);
}

// ------------------------------------------------------------- Int8 kernels

namespace {

// Shared dequant + bias + activation epilogue over one output row; `acc[j]`
// is the exact int32 dot of quantized operands for output (i, j). Row-wise
// (instead of per-element) so the dequant multiply-add vectorizes. noinline
// is load-bearing: with -O3 -march=native the compiler contracts the
// mul+add into an FMA differently per inline site, and the two kernel
// variants must stay bitwise identical — one out-of-line instance
// guarantees one instruction sequence for both.
__attribute__((noinline)) void finish_row(const std::int32_t* acc,
                                          const std::int32_t* colsum, std::int32_t za,
                                          double combined_scale, const double* bias,
                                          ops::EpilogueAct act, std::size_t n,
                                          double* out) noexcept {
  if (bias != nullptr) {
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = combined_scale * static_cast<double>(acc[j] - za * colsum[j]) + bias[j];
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = combined_scale * static_cast<double>(acc[j] - za * colsum[j]);
    }
  }
  switch (act) {
    case ops::EpilogueAct::None: break;
    case ops::EpilogueAct::Relu:
      for (std::size_t j = 0; j < n; ++j) out[j] = out[j] > 0.0 ? out[j] : 0.0;
      break;
    case ops::EpilogueAct::Tanh:
      for (std::size_t j = 0; j < n; ++j) out[j] = std::tanh(out[j]);
      break;
    case ops::EpilogueAct::Sigmoid:
      for (std::size_t j = 0; j < n; ++j) out[j] = 1.0 / (1.0 + std::exp(-out[j]));
      break;
    case ops::EpilogueAct::LeakyRelu:
      for (std::size_t j = 0; j < n; ++j) out[j] = out[j] > 0.0 ? out[j] : 0.01 * out[j];
      break;
  }
}

/// Rows of the Dot kernel's output tile.
constexpr std::size_t kDotRows = 4;

/// acc[r * n + j] = exact int32 dot of activation row r and transposed
/// weight row j, for `rows` rows, two outputs per pass over a row.
void dot_rows(std::size_t rows, std::size_t n, std::size_t k, const std::int16_t* a16,
              const std::int16_t* wt16, std::int32_t* acc) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int16_t* arow = a16 + r * k;
    std::int32_t* arow_acc = acc + r * n;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const std::int16_t* w0 = wt16 + j * k;
      const std::int16_t* w1 = w0 + k;
      std::int32_t acc0 = 0, acc1 = 0;
      for (std::size_t p = 0; p < k; ++p) {
        const std::int32_t av = arow[p];
        acc0 += av * w0[p];
        acc1 += av * w1[p];
      }
      arow_acc[j] = acc0;
      arow_acc[j + 1] = acc1;
    }
    for (; j < n; ++j) {
      const std::int16_t* wrow = wt16 + j * k;
      std::int32_t s = 0;
      for (std::size_t p = 0; p < k; ++p) s += static_cast<std::int32_t>(arow[p]) * wrow[p];
      arow_acc[j] = s;
    }
  }
}

/// dot_rows for kDotRows rows, in 4x4 output tiles (columns past the last
/// full tile go through dot_rows one column at a time).
void dot_tile_rows(std::size_t n, std::size_t k, const std::int16_t* a16,
                   const std::int16_t* wt16, std::int32_t* acc) noexcept {
  constexpr std::size_t kCols = 4;
  std::size_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    std::int32_t s[kDotRows][kCols] = {};
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t r = 0; r < kDotRows; ++r) {
        const std::int32_t av = a16[r * k + p];
        for (std::size_t c = 0; c < kCols; ++c) s[r][c] += av * wt16[(j + c) * k + p];
      }
    }
    for (std::size_t r = 0; r < kDotRows; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) acc[r * n + j + c] = s[r][c];
    }
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < kDotRows; ++r) {
      dot_rows(1, 1, k, a16 + r * k, wt16 + j * k, acc + r * n + j);
    }
  }
}

}  // namespace

void i8_gemm(Int8Kernel kind, std::size_t m, std::size_t n, std::size_t k,
             const std::int16_t* a16, const std::int16_t* wt16, const std::int16_t* w16,
             const std::int32_t* wt_colsum, const QuantParams& aq,
             const QuantParams& wq, const double* bias, ops::EpilogueAct act,
             double* out) noexcept {
  AHN_CHECK(wq.zero_point == 0);
  AHN_CHECK(k < (1u << 17));  // 127*127*k must fit int32
  const double combined = aq.scale * wq.scale;
  const std::int32_t za = aq.zero_point;

  if (kind == Int8Kernel::Dot) {
    // Each output is one contiguous k-length dot against a transposed weight
    // row. Groups of 4 rows run 4x4 output tiles, so every activation and
    // weight load feeds four dots, and the int16 x int16 -> int32 body
    // vectorizes to widening multiply-adds; a tail of fewer than 4 rows
    // takes dot_rows. Integer sums are exact, so neither the tiling nor the
    // SIMD reassociation can change the result.
    parallel_for(m * n * k, (m + kDotRows - 1) / kDotRows, [&](std::size_t g) {
      static thread_local std::vector<std::int32_t> acc;
      const std::size_t i0 = g * kDotRows;
      const std::size_t rows = std::min(kDotRows, m - i0);
      acc.resize(rows * n);
      if (rows == kDotRows) {
        dot_tile_rows(n, k, a16 + i0 * k, wt16, acc.data());
      } else {
        dot_rows(rows, n, k, a16 + i0 * k, wt16, acc.data());
      }
      for (std::size_t r = 0; r < rows; ++r) {
        finish_row(acc.data() + r * n, wt_colsum, za, combined, bias, act, n,
                   out + (i0 + r) * n);
      }
    });
    return;
  }

  // Row variant: accumulate a_ip * w[p, :] into an int32 row buffer — the
  // same access pattern as gemm_small, streaming each (k x n) weight row
  // once per input element.
  parallel_for(m * n * k, m, [&](std::size_t i) {
    static thread_local std::vector<std::int32_t> acc;
    acc.assign(n, 0);
    const std::int16_t* arow = a16 + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t a = arow[p];
      if (a == 0) continue;  // exact: a zero factor contributes nothing
      const std::int16_t* wrow = w16 + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        acc[j] += a * static_cast<std::int32_t>(wrow[j]);
      }
    }
    finish_row(acc.data(), wt_colsum, za, combined, bias, act, n, out + i * n);
  });
}

}  // namespace ahn::quant
