#include "tensor/ops.hpp"

#include <atomic>
#include <cmath>

#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/reference.hpp"

namespace ahn::ops {

namespace {

std::atomic<GemmImpl> g_gemm_impl{GemmImpl::Fast};

void count_gemm(std::size_t m, std::size_t n, std::size_t k) noexcept {
  OpCounts c;
  c.flops = 2ULL * m * n * k;
  c.bytes_read = sizeof(double) * (m * k + k * n);
  c.bytes_written = sizeof(double) * (m * n);
  FlopCounter::instance().add(c);
}

void count_elementwise(std::size_t n, std::uint64_t flops_per_elem) noexcept {
  OpCounts c;
  c.flops = flops_per_elem * n;
  c.bytes_read = 2 * sizeof(double) * n;
  c.bytes_written = sizeof(double) * n;
  FlopCounter::instance().add(c);
}

/// Epilogue accounting on top of count_gemm: one flop per element for the
/// bias add plus the bias vector read, one more per element when an
/// activation applies. Matches DenseLayer::inference_cost's fused model.
void count_epilogue(std::size_t m, std::size_t n, bool has_bias,
                    EpilogueAct act) noexcept {
  OpCounts c;
  if (has_bias) {
    c.flops += m * n;
    c.bytes_read += sizeof(double) * n;
  }
  if (act != EpilogueAct::None) c.flops += m * n;
  FlopCounter::instance().add(c);
}

}  // namespace

void set_gemm_impl(GemmImpl impl) noexcept {
  g_gemm_impl.store(impl, std::memory_order_relaxed);
}

GemmImpl gemm_impl() noexcept {
  return g_gemm_impl.load(std::memory_order_relaxed);
}

double epilogue_apply(EpilogueAct act, double x) noexcept {
  switch (act) {
    case EpilogueAct::None: return x;
    case EpilogueAct::Relu: return x > 0.0 ? x : 0.0;
    case EpilogueAct::Tanh: return std::tanh(x);
    case EpilogueAct::Sigmoid: return 1.0 / (1.0 + std::exp(-x));
    case EpilogueAct::LeakyRelu: return x > 0.0 ? x : 0.01 * x;
  }
  return x;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  AHN_CHECK_MSG(b.rows() == k, "matmul inner dims: " << k << " vs " << b.rows());
  count_gemm(m, n, k);
  if (gemm_impl() == GemmImpl::Naive) return ref::matmul(a, b);
  Tensor c({m, n});
  detail::gemm(false, false, m, n, k, a.data(), b.data(), c.data(), nullptr,
               EpilogueAct::None);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  AHN_CHECK_MSG(b.cols() == k, "matmul_nt inner dims");
  count_gemm(m, n, k);
  if (gemm_impl() == GemmImpl::Naive) return ref::matmul_nt(a, b);
  Tensor c({m, n});
  detail::gemm(false, true, m, n, k, a.data(), b.data(), c.data(), nullptr,
               EpilogueAct::None);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  AHN_CHECK_MSG(b.rows() == k, "matmul_tn inner dims");
  count_gemm(m, n, k);
  if (gemm_impl() == GemmImpl::Naive) return ref::matmul_tn(a, b);
  Tensor c({m, n});
  detail::gemm(true, false, m, n, k, a.data(), b.data(), c.data(), nullptr,
               EpilogueAct::None);
  return c;
}

Tensor matmul_epilogue(const Tensor& a, const Tensor& b, const Tensor* bias,
                       EpilogueAct act) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  AHN_CHECK_MSG(b.rows() == k, "matmul_epilogue inner dims");
  if (bias != nullptr) {
    AHN_CHECK(bias->rank() == 1 && bias->size() == n);
  }
  count_gemm(m, n, k);
  count_epilogue(m, n, bias != nullptr, act);
  if (gemm_impl() == GemmImpl::Naive) {
    Tensor c = ref::matmul(a, b);
    double* pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
      double* crow = pc + i * n;
      if (bias != nullptr) {
        const double* pb = bias->data();
        for (std::size_t j = 0; j < n; ++j) crow[j] += pb[j];
      }
      if (act != EpilogueAct::None) {
        for (std::size_t j = 0; j < n; ++j) crow[j] = epilogue_apply(act, crow[j]);
      }
    }
    return c;
  }
  Tensor c({m, n});
  detail::gemm(false, false, m, n, k, a.data(), b.data(), c.data(),
               bias != nullptr ? bias->data() : nullptr, act);
  return c;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  AHN_CHECK(a.rank() == 2 && x.rank() == 1);
  const std::size_t m = a.rows(), n = a.cols();
  AHN_CHECK(x.size() == n);
  Tensor y({m});
  parallel_for(m * n, m, [&](std::size_t i) { y[i] = dot(a.row(i), x.flat()); });
  count_gemm(m, 1, n);
  return y;
}

void axpy(double alpha, const Tensor& x, Tensor& y) {
  AHN_CHECK(x.size() == y.size());
  const double* __restrict px = x.data();
  double* __restrict py = y.data();
  const std::size_t sz = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < sz; ++i) py[i] += alpha * px[i];
  count_elementwise(sz, 2);
}

Tensor add(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.size() == b.size());
  Tensor c = a;
  axpy(1.0, b, c);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.size() == b.size());
  Tensor c = a;
  axpy(-1.0, b, c);
  return c;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.size() == b.size());
  Tensor c = a;
  double* __restrict pc = c.data();
  const double* __restrict pb = b.data();
  const std::size_t sz = c.size();
#pragma omp simd
  for (std::size_t i = 0; i < sz; ++i) pc[i] *= pb[i];
  count_elementwise(sz, 1);
  return c;
}

void scale(Tensor& t, double alpha) noexcept {
  double* __restrict p = t.data();
  const std::size_t sz = t.size();
#pragma omp simd
  for (std::size_t i = 0; i < sz; ++i) p[i] *= alpha;
}

void add_row_bias(Tensor& t, const Tensor& bias) {
  AHN_CHECK(t.rank() == 2 && bias.rank() == 1 && bias.size() == t.cols());
  const std::size_t rows = t.rows(), cols = t.cols();
  const double* __restrict pb = bias.data();
  for (std::size_t r = 0; r < rows; ++r) {
    double* __restrict row = t.data() + r * cols;
#pragma omp simd
    for (std::size_t c = 0; c < cols; ++c) row[c] += pb[c];
  }
  count_elementwise(rows * cols, 1);
}

double dot(std::span<const double> a, std::span<const double> b) {
  AHN_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double sum(const Tensor& t) noexcept {
  double s = 0.0;
  for (double x : t.flat()) s += x;
  return s;
}

double max_abs(const Tensor& t) noexcept {
  double m = 0.0;
  for (double x : t.flat()) m = std::max(m, std::abs(x));
  return m;
}

Tensor transpose(const Tensor& t) {
  AHN_CHECK(t.rank() == 2);
  if (gemm_impl() == GemmImpl::Naive) return ref::transpose(t);
  const std::size_t rows = t.rows(), cols = t.cols();
  Tensor out({cols, rows});
  const double* pin = t.data();
  double* pout = out.data();
  // 32x32 tiles keep both the read rows and the written columns resident in
  // L1 regardless of the matrix's leading dimension.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(rows, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(cols, c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r) {
        for (std::size_t c = c0; c < c1; ++c) pout[c * rows + r] = pin[r * cols + c];
      }
    }
  }
  return out;
}

}  // namespace ahn::ops
