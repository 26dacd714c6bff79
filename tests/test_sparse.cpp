// Tests for src/sparse: format conversions (COO/CSR/CSC round trips), SpMV
// and SpMM against dense references, generators' structural properties, and
// the compressed-vs-dense footprint ratio the paper's §2 motivates.

#include <gtest/gtest.h>

#include "sparse/formats.hpp"
#include "sparse/generators.hpp"
#include "sparse/spmv.hpp"
#include "tensor/ops.hpp"
#include "team_budgets.hpp"

namespace ahn::sparse {
namespace {

Csr small_example() {
  // [1 0 2]
  // [0 0 3]
  // [4 5 0]
  Coo coo;
  coo.rows = coo.cols = 3;
  coo.push(0, 0, 1.0);
  coo.push(0, 2, 2.0);
  coo.push(1, 2, 3.0);
  coo.push(2, 0, 4.0);
  coo.push(2, 1, 5.0);
  return Csr::from_coo(std::move(coo));
}

TEST(Coo, CoalesceSortsAndSumsDuplicates) {
  Coo coo;
  coo.rows = coo.cols = 2;
  coo.push(1, 1, 1.0);
  coo.push(0, 0, 2.0);
  coo.push(1, 1, 3.0);
  coo.coalesce();
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.row[0], 0u);
  EXPECT_EQ(coo.val[1], 4.0);
}

TEST(Csr, FromCooBasicAccess) {
  const Csr a = small_example();
  EXPECT_EQ(a.nnz(), 5u);
  EXPECT_EQ(a.at(0, 0), 1.0);
  EXPECT_EQ(a.at(0, 1), 0.0);
  EXPECT_EQ(a.at(2, 1), 5.0);
  EXPECT_NEAR(a.density(), 5.0 / 9.0, 1e-12);
}

TEST(Csr, DenseRoundTrip) {
  const Csr a = small_example();
  const Csr b = Csr::from_dense(a.to_dense());
  EXPECT_EQ(b.nnz(), a.nnz());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(a.at(r, c), b.at(r, c));
  }
}

TEST(Csr, CooRoundTrip) {
  const Csr a = small_example();
  const Csr b = Csr::from_coo(a.to_coo());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(a.at(r, c), b.at(r, c));
  }
}

TEST(Csr, TransposeMatchesDense) {
  const Csr a = small_example();
  const Csr at = a.transpose();
  const Tensor dt = ops::transpose(a.to_dense());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(at.at(r, c), dt.at(r, c));
  }
}

TEST(Csc, WrapsTransposedCsr) {
  const Csr a = small_example();
  const Csc c = Csc::from_csr(a);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_EQ(c.nnz(), a.nnz());
  EXPECT_EQ(c.transposed_csr().at(2, 0), 2.0);  // A(0,2) viewed transposed
}

TEST(Csr, DiagonalExtraction) {
  const Csr a = poisson2d(4);
  const auto d = a.diagonal();
  for (double v : d) EXPECT_EQ(v, 4.0);
}

TEST(Csr, CompressedFootprintBeatsDense) {
  Rng rng(1);
  const Csr a = random_spd(64, 5, rng);
  // The paper reports ~14x dense blow-up for NPB CG inputs; ours is of the
  // same order (exact factor depends on nnz/row).
  EXPECT_GT(static_cast<double>(a.dense_bytes()) / static_cast<double>(a.bytes()), 2.5);
}

TEST(Spmv, MatchesDenseMatvec) {
  Rng rng(3);
  const Csr a = random_sparse(12, 9, 0.3, rng);
  std::vector<double> x(9);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const std::vector<double> y = spmv(a, x);
  const Tensor yd = ops::matvec(a.to_dense(), Tensor::vector1d(x));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], yd[i], 1e-12);
}

TEST(Spmv, TransposeMatchesDense) {
  Rng rng(4);
  const Csr a = random_sparse(7, 11, 0.4, rng);
  std::vector<double> x(7);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y(11);
  spmv_transpose(a, x, y);
  const Tensor yd = ops::matvec(ops::transpose(a.to_dense()), Tensor::vector1d(x));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], yd[i], 1e-12);
}

TEST(Spmm, MatchesDenseMatmul) {
  Rng rng(5);
  const Csr a = random_sparse(8, 6, 0.35, rng);
  const Tensor b = Tensor::randn({6, 4}, rng);
  const Tensor c = spmm(a, b);
  const Tensor cd = ops::matmul(a.to_dense(), b);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], cd[i], 1e-12);
}

// Output rows are spmm's unit of parallel work: the product is bitwise
// equal at every team size.
TEST(Spmm, BitwiseAcrossTeamSizes) {
  Rng rng(7);
  const Csr a = random_sparse(64, 64, 0.25, rng);
  const Tensor b = Tensor::randn({64, 128}, rng);
  ASSERT_TRUE(team_test::forks_full_team(a.nnz() * b.cols(), a.rows()));
  team_test::expect_bitwise_equal(team_test::at_team_budgets([&] { return spmm(a, b); }));
}

TEST(Csr, SliceRowsPreservesContent) {
  Rng rng(6);
  const Csr a = random_sparse(10, 7, 0.4, rng);
  const Csr mid = a.slice_rows(3, 8);
  EXPECT_EQ(mid.rows(), 5u);
  EXPECT_EQ(mid.cols(), 7u);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) EXPECT_EQ(mid.at(r, c), a.at(r + 3, c));
  }
  // Degenerate and full slices.
  EXPECT_EQ(a.slice_rows(4, 4).rows(), 0u);
  EXPECT_EQ(a.slice_rows(0, 10).nnz(), a.nnz());
  EXPECT_THROW((void)a.slice_rows(5, 3), Error);
}

TEST(Spmv, DimensionChecks) {
  const Csr a = small_example();
  std::vector<double> wrong(2), y(3);
  EXPECT_THROW(spmv(a, wrong, y), Error);
}

class PoissonSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoissonSizes, Poisson2dStructure) {
  const std::size_t n = GetParam();
  const Csr a = poisson2d(n);
  EXPECT_EQ(a.rows(), n * n);
  // Symmetric, diagonally 4, off-diagonals -1.
  for (std::size_t r = 0; r < a.rows(); ++r) EXPECT_EQ(a.at(r, r), 4.0);
  const Csr at = a.transpose();
  for (std::size_t r = 0; r < a.rows(); r += 3) {
    for (std::size_t c = 0; c < a.cols(); c += 7) {
      EXPECT_EQ(a.at(r, c), at.at(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sparse, PoissonSizes, ::testing::Values(2, 4, 8, 16));

TEST(Generators, Poisson3dStencilCounts) {
  const Csr a = poisson3d(3);
  EXPECT_EQ(a.rows(), 27u);
  // Interior node has 7 entries, corner has 4.
  EXPECT_EQ(a.at(13, 13), 6.0);  // center of 3x3x3
}

class SpdSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpdSizes, RandomSpdIsSymmetricDiagonallyDominant) {
  Rng rng(GetParam());
  const Csr a = random_spd(GetParam() * 8, 4, rng);
  const Csr at = a.transpose();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double offdiag = 0.0;
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const std::size_t c = a.col_idx()[k];
      EXPECT_NEAR(a.values()[k], at.at(r, c), 1e-12);
      if (c != r) offdiag += std::abs(a.values()[k]);
    }
    EXPECT_GT(a.at(r, r), offdiag);  // strict diagonal dominance
  }
}

INSTANTIATE_TEST_SUITE_P(Sparse, SpdSizes, ::testing::Values(1, 2, 4, 8));

TEST(Generators, TridiagonalMassIsSymmetricTridiagonal) {
  Rng rng(9);
  const Csr m = tridiagonal_mass(16, rng);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (std::max(r, c) - std::min(r, c) > 1) {
        EXPECT_EQ(m.at(r, c), 0.0);
      }
    }
  }
}

TEST(Generators, RandomRhsInRange) {
  Rng rng(10);
  const auto b = random_rhs(100, rng);
  for (double v : b) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Generators, RandomSparseHitsTargetDensity) {
  Rng rng(11);
  const Csr a = random_sparse(50, 50, 0.1, rng);
  EXPECT_NEAR(a.density(), 0.1, 0.03);  // duplicates coalesce, slight dip
}

}  // namespace
}  // namespace ahn::sparse
