// Tests for src/apps: the Application contract across all 11 workloads
// (parameterized), per-app kernel correctness spot checks, QoI behaviour,
// sparse-input batches, and perforation quality/speed trade-offs.

#include <gtest/gtest.h>

#include <numeric>

#include "apps/blackscholes_app.hpp"
#include "apps/canneal_app.hpp"
#include "apps/miniqmc_app.hpp"
#include "apps/registry.hpp"
#include "apps/x264_app.hpp"
#include "sparse/spmv.hpp"

namespace ahn::apps {
namespace {

class AllApps : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    app = make_application(GetParam());
    app->generate_problems(6, 77);
  }
  std::unique_ptr<Application> app;
};

TEST_P(AllApps, MetadataIsConsistent) {
  EXPECT_FALSE(app->name().empty());
  EXPECT_FALSE(app->replaced_function().empty());
  EXPECT_FALSE(app->qoi_name().empty());
  EXPECT_GT(app->input_dim(), 0u);
  EXPECT_GT(app->output_dim(), 0u);
  EXPECT_EQ(app->problem_count(), 6u);
  EXPECT_GT(app->recommended_train_problems(), 0u);
}

TEST_P(AllApps, FeatureWidthMatchesContract) {
  for (std::size_t i = 0; i < app->problem_count(); ++i) {
    EXPECT_EQ(app->input_features(i).size(), app->input_dim());
  }
}

TEST_P(AllApps, RegionOutputsHaveDeclaredWidth) {
  const RegionRun run = app->run_region(0);
  EXPECT_EQ(run.outputs.size(), app->output_dim());
  EXPECT_GE(run.region_seconds, 0.0);
}

TEST_P(AllApps, RegionIsDeterministic) {
  const RegionRun a = app->run_region(1);
  const RegionRun b = app->run_region(1);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(a.outputs[i], b.outputs[i]);
  }
}

TEST_P(AllApps, ProblemsVaryAcrossIndices) {
  const auto f0 = app->input_features(0);
  const auto f1 = app->input_features(1);
  double diff = 0.0;
  for (std::size_t i = 0; i < f0.size(); ++i) diff += std::abs(f0[i] - f1[i]);
  EXPECT_GT(diff, 0.0);
}

TEST_P(AllApps, GenerateProblemsIsSeedDeterministic) {
  auto other = make_application(GetParam());
  other->generate_problems(6, 77);
  const auto a = app->input_features(3);
  const auto b = other->input_features(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_P(AllApps, QoiErrorZeroForExactOutputs) {
  const RegionRun run = app->run_region(2);
  EXPECT_NEAR(app->qoi_error(2, run.outputs, run.outputs), 0.0, 1e-12);
}

TEST_P(AllApps, QoiErrorPositiveForPerturbedOutputs) {
  const RegionRun run = app->run_region(2);
  std::vector<double> corrupted = run.outputs;
  for (auto& v : corrupted) v = v * 1.5 + 1.0;
  EXPECT_GT(app->qoi_error(2, run.outputs, corrupted), 0.01);
}

TEST_P(AllApps, PerforationFullKeepMatchesExactQuality) {
  const RegionRun exact = app->run_region(0);
  const RegionRun perf = app->run_region_perforated(0, 1.0);
  EXPECT_LT(app->qoi_error(0, exact.outputs, perf.outputs), 1e-9);
}

// At keep 1.0 the perforated region is the exact region, so it must count
// the same operations: a perforation baseline is priced on these counts.
TEST_P(AllApps, PerforationFullKeepCountsExactOps) {
  for (std::size_t i = 0; i < app->problem_count(); ++i) {
    const OpCounts exact = app->run_region(i).region_ops;
    const OpCounts perf = app->run_region_perforated(i, 1.0).region_ops;
    EXPECT_GT(exact.flops, 0u) << "problem " << i;
    EXPECT_EQ(perf.flops, exact.flops) << "problem " << i;
    EXPECT_EQ(perf.bytes_read, exact.bytes_read) << "problem " << i;
    EXPECT_EQ(perf.bytes_written, exact.bytes_written) << "problem " << i;
  }
}

TEST_P(AllApps, SparseBatchMatchesDenseFeatures) {
  const std::vector<std::size_t> ids{0, 1, 2};
  const sparse::Csr batch = app->sparse_input_batch(ids);
  EXPECT_EQ(batch.rows(), 3u);
  EXPECT_EQ(batch.cols(), app->input_dim());
  const Tensor dense = batch.to_dense();
  for (std::size_t r = 0; r < 3; ++r) {
    const auto feat = app->input_features(ids[r]);
    for (std::size_t c = 0; c < feat.size(); ++c) {
      EXPECT_NEAR(dense.at(r, c), feat[c], 1e-12);
    }
  }
}

TEST_P(AllApps, OtherPartIsCheapRelativeToRegion) {
  const RegionRun run = app->run_region(0);
  const double other = app->other_part_seconds(0);
  EXPECT_LT(other, run.region_seconds);
}

INSTANTIATE_TEST_SUITE_P(Registry, AllApps, ::testing::ValuesIn(application_names()));

TEST(Registry, ListsElevenApplications) {
  EXPECT_EQ(application_names().size(), 11u);
  EXPECT_EQ(make_all_applications().size(), 11u);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_application("NotAnApp"), Error);
}

TEST(Registry, TypesMatchTable2) {
  EXPECT_EQ(make_application("CG")->type(), AppType::TypeI);
  EXPECT_EQ(make_application("Blackscholes")->type(), AppType::TypeII);
  EXPECT_EQ(make_application("AMG")->type(), AppType::TypeIII);
}

TEST(Blackscholes, CallPriceSanity) {
  // ATM call, no rate: price ~ 0.4 * S * sigma * sqrt(T).
  const double p = BlackscholesApp::call_price(100, 100, 0.0, 0.2, 1.0);
  EXPECT_NEAR(p, 0.4 * 100 * 0.2, 0.3);
  // Deep ITM: price ~ S - K e^{-rT}.
  const double itm = BlackscholesApp::call_price(200, 100, 0.05, 0.2, 1.0);
  EXPECT_NEAR(itm, 200 - 100 * std::exp(-0.05), 0.5);
  // Monotone in volatility.
  EXPECT_GT(BlackscholesApp::call_price(100, 100, 0.03, 0.4, 1.0),
            BlackscholesApp::call_price(100, 100, 0.03, 0.2, 1.0));
}

TEST(Blackscholes, PerforationDegradesQuality) {
  BlackscholesApp app(8, 4);
  app.generate_problems(3, 5);
  const RegionRun exact = app.run_region(0);
  const RegionRun perf = app.run_region_perforated(0, 0.5);
  EXPECT_GT(app.qoi_error(0, exact.outputs, perf.outputs), 0.05);
}

TEST(Canneal, AnnealingReducesRoutingCost) {
  CannealApp app(32, 64, 8, 40);
  app.generate_problems(2, 9);
  std::vector<std::size_t> initial(32);
  std::iota(initial.begin(), initial.end(), 0);
  const double initial_cost = app.routing_cost(0, initial);
  const RegionRun run = app.run_region(0);
  EXPECT_LT(run.outputs[0], initial_cost);
}

TEST(X264, SsimBounds) {
  std::vector<double> a(64), b(64);
  Rng rng(4);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = rng.uniform(0, 255);
    b[i] = rng.uniform(0, 255);
  }
  EXPECT_NEAR(X264App::ssim(a, a), 1.0, 1e-12);
  const double cross = X264App::ssim(a, b);
  EXPECT_LT(cross, 1.0);
  EXPECT_GT(cross, -1.0);
}

TEST(X264, ReconstructionIsCloseToSource) {
  X264App app(16, 12.0, 1);
  app.generate_problems(2, 3);
  const RegionRun run = app.run_region(0);
  const double q = app.qoi(0, run.outputs);  // SSIM vs source
  EXPECT_GT(q, 0.9);
}

TEST(MiniQmc, SlaterMatrixPositiveEntries) {
  MiniQmcApp app(4, 1);
  app.generate_problems(1, 1);
  const auto pos = app.input_features(0);
  const auto a = app.slater_matrix(pos);
  for (double v : a) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);  // exp(-r^2)
  }
}

TEST(MiniQmc, PerforationBiasesEnergy) {
  MiniQmcApp app(8, 1);
  app.generate_problems(2, 6);
  const RegionRun exact = app.run_region(0);
  const RegionRun perf = app.run_region_perforated(0, 0.25);
  // logdet identical (not perforated), energy differs.
  EXPECT_NEAR(exact.outputs[0], perf.outputs[0], 1e-9);
  EXPECT_NE(exact.outputs[1], perf.outputs[1]);
}

TEST(Perforation, IterativeSolversDegradeGracefully) {
  // Property: for solver apps, stronger perforation never improves quality.
  for (const char* name : {"CG", "MG", "fluidanimate", "Laghos"}) {
    auto app = make_application(name);
    app->generate_problems(2, 21);
    const RegionRun exact = app->run_region(0);
    const double e_mild = app->qoi_error(
        0, exact.outputs, app->run_region_perforated(0, 0.5).outputs);
    const double e_harsh = app->qoi_error(
        0, exact.outputs, app->run_region_perforated(0, 0.05).outputs);
    EXPECT_LE(e_mild, e_harsh + 1e-9) << name;
  }
}

}  // namespace
}  // namespace ahn::apps
