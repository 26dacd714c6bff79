#include "tensor/reference.hpp"

#include "common/parallel.hpp"

namespace ahn::ops::ref {

Tensor matmul(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  AHN_CHECK_MSG(b.rows() == k, "matmul inner dims: " << k << " vs " << b.rows());
  Tensor c({m, n});
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  parallel_for(m * n * k, m, [&](std::size_t i) {
    for (std::size_t l = 0; l < k; ++l) {
      const double av = pa[i * k + l];
      const double* brow = pb + l * n;
      double* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  AHN_CHECK_MSG(b.cols() == k, "matmul_nt inner dims");
  Tensor c({m, n});
  parallel_for(m * n * k, m, [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      const double* ar = a.data() + i * k;
      const double* br = b.data() + j * k;
      for (std::size_t l = 0; l < k; ++l) s += ar[l] * br[l];
      c.at(i, j) = s;
    }
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  AHN_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  AHN_CHECK_MSG(b.rows() == k, "matmul_tn inner dims");
  Tensor c({m, n});
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  // Rows of C are independent (each thread owns crow); the reduction over l
  // runs in a fixed ascending order per element.
  parallel_for(m * n * k, m, [&](std::size_t i) {
    double* crow = pc + i * n;
    for (std::size_t l = 0; l < k; ++l) {
      const double av = pa[l * m + i];
      const double* brow = pb + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
  return c;
}

Tensor transpose(const Tensor& t) {
  AHN_CHECK(t.rank() == 2);
  Tensor out({t.cols(), t.rows()});
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < t.cols(); ++c) out.at(c, r) = t.at(r, c);
  }
  return out;
}

}  // namespace ahn::ops::ref
