#include "sparse/spmv.hpp"

#include "common/flops.hpp"
#include "common/parallel.hpp"

namespace ahn::sparse {

namespace {
void count_spmv(const Csr& a, std::size_t dense_cols) noexcept {
  OpCounts c;
  c.flops = 2ULL * a.nnz() * dense_cols;
  // CSR traffic: values + column indices + row pointers + the dense operand.
  c.bytes_read = a.bytes() + sizeof(double) * a.cols() * dense_cols;
  c.bytes_written = sizeof(double) * a.rows() * dense_cols;
  FlopCounter::instance().add(c);
}
}  // namespace

void spmv(const Csr& a, std::span<const double> x, std::span<double> y) {
  AHN_CHECK(x.size() == a.cols() && y.size() == a.rows());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  parallel_for(a.nnz(), a.rows(), [&](std::size_t r) {
    double s = 0.0;
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) s += v[k] * x[ci[k]];
    y[r] = s;
  });
  count_spmv(a, 1);
}

std::vector<double> spmv(const Csr& a, std::span<const double> x) {
  std::vector<double> y(a.rows());
  spmv(a, x, y);
  return y;
}

void spmv_transpose(const Csr& a, std::span<const double> x, std::span<double> y) {
  AHN_CHECK(x.size() == a.rows() && y.size() == a.cols());
  std::fill(y.begin(), y.end(), 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) y[ci[k]] += v[k] * xr;
  }
  count_spmv(a, 1);
}

Tensor spmm(const Csr& a, const Tensor& b) {
  AHN_CHECK(b.rank() == 2);
  AHN_CHECK_MSG(b.rows() == a.cols(), "spmm inner dims: " << a.cols() << " vs " << b.rows());
  const std::size_t n = b.cols();
  Tensor c({a.rows(), n});
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  parallel_for(a.nnz() * n, a.rows(), [&](std::size_t r) {
    double* crow = c.data() + r * n;
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const double av = v[k];
      const double* brow = b.data() + ci[k] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
  count_spmv(a, n);
  return c;
}

}  // namespace ahn::sparse
