// Tests for src/tensor: shape handling, element access, and the BLAS-like
// kernels (including the transposed products used by backprop). The blocked
// GEMM battery at the bottom checks the fast kernels against the retained
// naive references across rectangular/degenerate shapes, and pins down the
// determinism contract (bitwise-equal results across thread counts, and
// row-of-batch == 1-row product) that checkpointed training and batched
// serving rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/reference.hpp"
#include "tensor/tensor.hpp"
#include "team_budgets.hpp"

namespace ahn {
namespace {

TEST(Tensor, ConstructsWithShapeAndZeros) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  for (double v : t.flat()) EXPECT_EQ(v, 0.0);
}

TEST(Tensor, DataConstructorValidatesVolume) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, ElementAccessRowMajor) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 2), 3.0);
  EXPECT_EQ(t.at(1, 0), 4.0);
  t.at(1, 1) = 42.0;
  EXPECT_EQ(t[4], 42.0);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 6.0);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, RowSpanViewsWithoutCopy) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  auto row = t.row(1);
  row[0] = -4.0;
  EXPECT_EQ(t.at(1, 0), -4.0);
}

TEST(Tensor, RandnReproducibleFromSeed) {
  Rng a(5), b(5);
  const Tensor x = Tensor::randn({3, 3}, a);
  const Tensor y = Tensor::randn({3, 3}, b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Tensor, FullFillsValue) {
  const Tensor t = Tensor::full({4}, 2.5);
  for (double v : t.flat()) EXPECT_EQ(v, 2.5);
}

TEST(Tensor, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).shape_string(), "[2x3]");
}

TEST(Ops, MatmulMatchesHandComputed) {
  const Tensor a({2, 2}, {1, 2, 3, 4});
  const Tensor b({2, 2}, {5, 6, 7, 8});
  const Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0);
  EXPECT_EQ(c.at(0, 1), 22.0);
  EXPECT_EQ(c.at(1, 0), 43.0);
  EXPECT_EQ(c.at(1, 1), 50.0);
}

TEST(Ops, MatmulRejectsBadInnerDims) {
  const Tensor a({2, 3});
  const Tensor b({2, 3});
  EXPECT_THROW((void)ops::matmul(a, b), Error);
}

TEST(Ops, TransposedProductsAgreeWithExplicitTranspose) {
  Rng rng(2);
  const Tensor a = Tensor::randn({4, 3}, rng);
  const Tensor b = Tensor::randn({5, 3}, rng);
  const Tensor expect_nt = ops::matmul(a, ops::transpose(b));
  const Tensor got_nt = ops::matmul_nt(a, b);
  for (std::size_t i = 0; i < expect_nt.size(); ++i) {
    EXPECT_NEAR(got_nt[i], expect_nt[i], 1e-12);
  }

  const Tensor c = Tensor::randn({4, 6}, rng);
  const Tensor expect_tn = ops::matmul(ops::transpose(a), c);
  const Tensor got_tn = ops::matmul_tn(a, c);
  for (std::size_t i = 0; i < expect_tn.size(); ++i) {
    EXPECT_NEAR(got_tn[i], expect_tn[i], 1e-12);
  }
}

TEST(Ops, MatvecMatchesMatmul) {
  Rng rng(3);
  const Tensor a = Tensor::randn({3, 4}, rng);
  Tensor x = Tensor::randn({4}, rng);
  const Tensor y = ops::matvec(a, x);
  Tensor xm = x;
  xm.reshape({4, 1});
  const Tensor ym = ops::matmul(a, xm);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], ym[i], 1e-12);
}

TEST(Ops, AxpyAndElementwise) {
  Tensor x({3}, {1, 2, 3});
  Tensor y({3}, {10, 20, 30});
  ops::axpy(2.0, x, y);
  EXPECT_EQ(y[0], 12.0);
  EXPECT_EQ(y[2], 36.0);

  const Tensor s = ops::add(x, x);
  EXPECT_EQ(s[1], 4.0);
  const Tensor d = ops::sub(y, x);
  EXPECT_EQ(d[0], 11.0);
  const Tensor h = ops::hadamard(x, x);
  EXPECT_EQ(h[2], 9.0);
}

TEST(Ops, AddRowBiasBroadcasts) {
  Tensor t({2, 2}, {1, 1, 1, 1});
  const Tensor bias({2}, {5, 7});
  ops::add_row_bias(t, bias);
  EXPECT_EQ(t.at(0, 0), 6.0);
  EXPECT_EQ(t.at(1, 1), 8.0);
}

TEST(Ops, DotNormSumMax) {
  const Tensor x({3}, {3, 4, 0});
  EXPECT_DOUBLE_EQ(ops::dot(x.flat(), x.flat()), 25.0);
  EXPECT_DOUBLE_EQ(ops::norm2(x.flat()), 5.0);
  EXPECT_DOUBLE_EQ(ops::sum(x), 7.0);
  const Tensor y({3}, {-9, 4, 0});
  EXPECT_DOUBLE_EQ(ops::max_abs(y), 9.0);
}

TEST(Ops, MatmulCountsFlops) {
  FlopCounter::instance().reset();
  FlopRegion region;
  const Tensor a({4, 5});
  const Tensor b({5, 6});
  (void)ops::matmul(a, b);
  EXPECT_EQ(region.delta().flops, 2u * 4 * 5 * 6);
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(4);
  const Tensor a = Tensor::randn({3, 5}, rng);
  const Tensor att = ops::transpose(ops::transpose(a));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], att[i]);
}

// ------------------------------------------------------------ blocked GEMM

/// Restores the default kernel selection after each test in the battery.
class GemmKernels : public ::testing::Test {
 protected:
  void TearDown() override { ops::set_gemm_impl(ops::GemmImpl::Fast); }

  static void expect_close(const Tensor& got, const Tensor& want, double tol) {
    ASSERT_EQ(got.size(), want.size());
    double scale = 1.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      scale = std::max(scale, std::abs(want[i]));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], tol * scale) << "at flat index " << i;
    }
  }
};

// Shapes chosen to straddle every tiling boundary: 1-row/1-col products,
// sizes around the 4x8 microtile, the 64-row MC block, and (via k = 300)
// the 256-deep KC panel split.
TEST_F(GemmKernels, MatchesNaiveReferenceAcrossShapes) {
  const std::size_t dims[] = {1, 3, 5, 17, 33, 65, 97};
  Rng rng(11);
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{300}}) {
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor bt = ops::ref::transpose(b);   // (n x k)
        const Tensor at = ops::ref::transpose(a);   // (k x m)
        ops::set_gemm_impl(ops::GemmImpl::Fast);
        const Tensor c = ops::matmul(a, b);
        const Tensor c_nt = ops::matmul_nt(a, bt);
        const Tensor c_tn = ops::matmul_tn(at, b);
        const Tensor want = ops::ref::matmul(a, b);
        const double tol = 1e-13 * static_cast<double>(k);
        expect_close(c, want, tol);
        expect_close(c_nt, want, tol);
        expect_close(c_tn, want, tol);
        expect_close(ops::transpose(a), at, 0.0);
      }
    }
  }
}

TEST_F(GemmKernels, NaiveImplSelectable) {
  Rng rng(12);
  const Tensor a = Tensor::randn({9, 31}, rng);
  const Tensor b = Tensor::randn({31, 6}, rng);
  ops::set_gemm_impl(ops::GemmImpl::Naive);
  EXPECT_EQ(ops::gemm_impl(), ops::GemmImpl::Naive);
  const Tensor naive = ops::matmul(a, b);
  const Tensor want = ops::ref::matmul(a, b);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(naive[i], want[i]);
}

// The determinism contract: bitwise-identical output for any thread count.
TEST_F(GemmKernels, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(13);
  struct Shape { std::size_t m, k, n; };
  // 256 x 24 x 48 takes the unpacked path (k * n <= kSmallGemm) and splits
  // 4-row groups; 256 x 300 x 96 takes the blocked path with four 64-row
  // blocks and a KC split. Both sit above the grain, so each budget forks a
  // real team.
  for (const auto& s : {Shape{256, 24, 48}, Shape{256, 300, 96}}) {
    if (s.k * s.n <= ops::detail::kSmallGemm) {
      const std::size_t groups = (s.m + ops::detail::kMr - 1) / ops::detail::kMr;
      ASSERT_TRUE(team_test::forks_full_team(ops::detail::small_tile_work(s.m, s.n, s.k),
                                             groups));
    } else {
      // Each KC panel is its own parallel loop; the last one is the thinnest.
      const std::size_t row_blocks = (s.m + ops::detail::kMc - 1) / ops::detail::kMc;
      const std::size_t last_kc =
          s.k % ops::detail::kKc == 0 ? ops::detail::kKc : s.k % ops::detail::kKc;
      ASSERT_TRUE(team_test::forks_full_team(s.m * s.n * last_kc, row_blocks));
    }
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor bt = ops::ref::transpose(b);  // (n x k)
    const Tensor bias = Tensor::randn({s.n}, rng);
    team_test::expect_bitwise_equal(team_test::at_team_budgets(
        [&] { return ops::matmul_epilogue(a, b, &bias, ops::EpilogueAct::Relu); }));
    // The NT product's workers read the calling thread's transposed panel.
    team_test::expect_bitwise_equal(
        team_test::at_team_budgets([&] { return ops::matmul_nt(a, bt); }));
  }
}

/// C = op(A) * B + bias by the recurrence the fast kernel promises in every
/// orientation: per element a std::fma chain from 0.0 over ascending p, one
/// chain over all k when k * n <= kSmallGemm, else one chain per kKc panel
/// with the panels summed in order; then one plain add of the bias.
Tensor fma_chain_reference(bool a_trans, const Tensor& a, const Tensor& b,
                           const Tensor& bias) {
  const std::size_t m = a_trans ? a.cols() : a.rows();
  const std::size_t k = b.rows(), n = b.cols();
  const std::size_t panel = k * n <= ops::detail::kSmallGemm ? k : ops::detail::kKc;
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double total = 0.0;
      for (std::size_t p0 = 0; p0 < k; p0 += panel) {
        double s = 0.0;
        for (std::size_t p = p0; p < std::min(k, p0 + panel); ++p) {
          s = std::fma(a_trans ? a.at(p, i) : a.at(i, p), b.at(p, j), s);
        }
        total = p0 == 0 ? s : s + total;
      }
      c.at(i, j) = total + bias[j];
    }
  }
  return c;
}

// The NN (forward), TN (weight-gradient) and NT (input-gradient) products
// are exactly the fma recurrence above, bitwise, on both paths: tail rows and
// columns of the 4x8 tile, a single row, and k past one KC panel. NT is also
// run with a transposed A, which no layer uses but the kernel accepts.
TEST_F(GemmKernels, ForwardAndWeightGradientAreFmaChains) {
  Rng rng(18);
  for (std::size_t m : {1, 2, 3, 4, 5, 7, 32, 33}) {
    for (std::size_t n : {1, 7, 8, 9, 33, 40}) {
      for (std::size_t k : {1, 5, 32, 40, 300}) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor at = ops::ref::transpose(a);  // (k x m)
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor bt = ops::ref::transpose(b);  // (n x k)
        const Tensor bias = Tensor::randn({n}, rng);
        const Tensor want = fma_chain_reference(false, a, b, bias);
        const std::size_t bytes = want.size() * sizeof(double);
        ASSERT_EQ(0, std::memcmp(want.data(), fma_chain_reference(true, at, b, bias).data(),
                                 bytes));
        const Tensor nn = ops::matmul_epilogue(a, b, &bias, ops::EpilogueAct::None);
        Tensor tn = ops::matmul_tn(at, b);
        ops::add_row_bias(tn, bias);
        Tensor nt = ops::matmul_nt(a, bt);
        ops::add_row_bias(nt, bias);
        Tensor tt({m, n});
        ops::detail::gemm(true, true, m, n, k, at.data(), bt.data(), tt.data(), bias.data(),
                          ops::EpilogueAct::None);
        ASSERT_EQ(0, std::memcmp(nn.data(), want.data(), bytes)) << "NN";
        ASSERT_EQ(0, std::memcmp(tn.data(), want.data(), bytes)) << "TN";
        ASSERT_EQ(0, std::memcmp(nt.data(), want.data(), bytes)) << "NT";
        ASSERT_EQ(0, std::memcmp(tt.data(), want.data(), bytes)) << "NT, A transposed";
      }
    }
  }
}

// Row i of a batched product must equal the same row computed alone — the
// bitwise guarantee the batched serving runtime asserts — in all three
// orientations, on both paths (k = 300 splits KC panels on the blocked
// one), with tail rows and columns and the fused epilogue.
TEST_F(GemmKernels, BatchRowEqualsSingleRowProduct) {
  Rng rng(14);
  for (std::size_t m : {5, 32, 33}) {
    for (std::size_t n : {1, 9, 33, 40}) {
      for (std::size_t k : {24, 40, 300}) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor at = ops::ref::transpose(a);  // (k x m)
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor bt = ops::ref::transpose(b);  // (n x k)
        const Tensor bias = Tensor::randn({n}, rng);
        const Tensor nn = ops::matmul_epilogue(a, b, &bias, ops::EpilogueAct::Tanh);
        const Tensor nt = ops::matmul_nt(a, bt);
        const Tensor tn = ops::matmul_tn(at, b);
        for (std::size_t i = 0; i < m; ++i) {
          Tensor row({1, k});
          std::memcpy(row.data(), a.data() + i * k, k * sizeof(double));
          const Tensor col = ops::ref::transpose(row);  // (k x 1)
          const std::size_t bytes = n * sizeof(double);
          EXPECT_EQ(0, std::memcmp(
                           ops::matmul_epilogue(row, b, &bias, ops::EpilogueAct::Tanh).data(),
                           nn.data() + i * n, bytes))
              << "NN row " << i;
          EXPECT_EQ(0, std::memcmp(ops::matmul_nt(row, bt).data(), nt.data() + i * n, bytes))
              << "NT row " << i;
          EXPECT_EQ(0, std::memcmp(ops::matmul_tn(col, b).data(), tn.data() + i * n, bytes))
              << "TN row " << i;
        }
      }
    }
  }
}

// Fused epilogue == unfused matmul + add_row_bias + pointwise activation,
// bitwise (the epilogue applies after the identical accumulation).
TEST_F(GemmKernels, FusedEpilogueBitwiseEqualsUnfused) {
  Rng rng(15);
  for (std::size_t k : {std::size_t{24}, std::size_t{300}}) {
    const Tensor a = Tensor::randn({19, k}, rng);
    const Tensor b = Tensor::randn({k, 41}, rng);
    const Tensor bias = Tensor::randn({41}, rng);
    for (auto act : {ops::EpilogueAct::None, ops::EpilogueAct::Relu,
                     ops::EpilogueAct::Tanh, ops::EpilogueAct::Sigmoid,
                     ops::EpilogueAct::LeakyRelu}) {
      const Tensor fused = ops::matmul_epilogue(a, b, &bias, act);
      Tensor unfused = ops::matmul(a, b);
      ops::add_row_bias(unfused, bias);
      for (double& v : unfused.flat()) v = ops::epilogue_apply(act, v);
      ASSERT_EQ(0, std::memcmp(fused.data(), unfused.data(),
                               fused.size() * sizeof(double)));
    }
  }
}

TEST_F(GemmKernels, DegenerateAndBiaslessShapes) {
  Rng rng(16);
  // k == 0: product is all zeros; epilogue still applies.
  const Tensor a0({3, 0});
  const Tensor b0({0, 4});
  const Tensor bias = Tensor::randn({4}, rng);
  const Tensor c0 = ops::matmul_epilogue(a0, b0, &bias, ops::EpilogueAct::None);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(c0.at(0, j), bias[j]);
    EXPECT_EQ(c0.at(2, j), bias[j]);
  }
  // No bias, no activation: plain product.
  const Tensor a = Tensor::randn({2, 5}, rng);
  const Tensor b = Tensor::randn({5, 3}, rng);
  const Tensor c = ops::matmul_epilogue(a, b, nullptr);
  const Tensor want = ops::ref::matmul(a, b);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-12);
}

TEST_F(GemmKernels, EpilogueCountsBiasAndActivationFlops) {
  Rng rng(17);
  const Tensor a = Tensor::randn({4, 5}, rng);
  const Tensor b = Tensor::randn({5, 6}, rng);
  const Tensor bias = Tensor::randn({6}, rng);
  FlopRegion region;
  (void)ops::matmul_epilogue(a, b, &bias, ops::EpilogueAct::Relu);
  // gemm 2mnk + bias mn + activation mn
  EXPECT_EQ(region.delta().flops, 2u * 4 * 5 * 6 + 4 * 6 + 4 * 6);
}

}  // namespace
}  // namespace ahn
