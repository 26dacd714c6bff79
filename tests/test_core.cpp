// Tests for src/core: Table-1 config parsing, Eqn-2/Eqn-3 evaluation
// mechanics (fallback accounting, the modeled phase breakdown, the sparse
// and encoder paths), and a miniature end-to-end
// pipeline run on the cheapest application.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/registry.hpp"
#include "core/config.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "sparse/generators.hpp"
#include "team_budgets.hpp"

namespace ahn::core {
namespace {

TEST(Config, DefaultsMatchPaperSettings) {
  const Config cfg;
  EXPECT_EQ(cfg.search_type, nas::SearchType::Autokeras);
  EXPECT_DOUBLE_EQ(cfg.mu, 0.1);  // §7.1: mu = 10%
  EXPECT_DOUBLE_EQ(cfg.quality_loss, 0.1);
  EXPECT_EQ(cfg.init_model, nn::ModelKind::Mlp);  // Table 1 default
}

TEST(Config, AppliesTable1Knobs) {
  Config cfg;
  cfg.apply("searchType=fullInput");
  cfg.apply("bayesianInit=7");
  cfg.apply("encodingLoss=0.3");
  cfg.apply("qualityLoss=0.05");
  cfg.apply("initModel=CNN");
  cfg.apply("numEpoch=99");
  cfg.apply("trainRatio=0.7");
  cfg.apply("batchSize=16");
  cfg.apply("lr=0.01");
  cfg.apply("preprocessing=0");
  EXPECT_EQ(cfg.search_type, nas::SearchType::FullInput);
  EXPECT_EQ(cfg.bayesian_init, 7u);
  EXPECT_DOUBLE_EQ(cfg.encoding_loss, 0.3);
  EXPECT_DOUBLE_EQ(cfg.quality_loss, 0.05);
  EXPECT_EQ(cfg.init_model, nn::ModelKind::Cnn);
  EXPECT_EQ(cfg.num_epoch, 99u);
  EXPECT_DOUBLE_EQ(cfg.train_ratio, 0.7);
  EXPECT_EQ(cfg.batch_size, 16u);
  EXPECT_DOUBLE_EQ(cfg.lr, 0.01);
  EXPECT_FALSE(cfg.preprocessing);
}

TEST(Config, RejectsUnknownKeysAndBadValues) {
  Config cfg;
  EXPECT_THROW(cfg.apply("noSuchKey=1"), Error);
  EXPECT_THROW(cfg.apply("numEpoch=abc"), Error);
  EXPECT_THROW(cfg.apply("malformed"), Error);
  EXPECT_THROW(cfg.apply("searchType=bogus"), Error);
}

TEST(Config, FromArgsAppliesEach) {
  const char* argv[] = {"prog", "mu=0.2", "seed=9"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_DOUBLE_EQ(cfg.mu, 0.2);
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(Config, TranslatesToNasAndTrainOptions) {
  Config cfg;
  cfg.apply("innerIterations=9");
  cfg.apply("kMax=32");
  const nas::NasOptions nopts = cfg.nas_options();
  EXPECT_EQ(nopts.inner_iterations, 9u);
  EXPECT_EQ(nopts.k_max, 32u);
  const nn::TrainOptions topts = cfg.train_options();
  EXPECT_EQ(topts.epochs, cfg.num_epoch);
  EXPECT_EQ(topts.batch_size, cfg.batch_size);
}

/// Builds a perfect pipeline model (predicts the app's exact outputs) by
/// wrapping a lookup — lets evaluation mechanics be tested in isolation.
nas::PipelineModel oracle_like_model(const apps::Application& app,
                                     std::span<const std::size_t> problems,
                                     double corruption) {
  // Train a tiny identity-activation net to regress the mapping; corruption
  // perturbs its weights to force controlled misses.
  nn::Dataset data;
  data.x = Tensor({problems.size(), app.input_dim()});
  data.y = Tensor({problems.size(), app.output_dim()});
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const auto f = app.input_features(problems[i]);
    std::copy(f.begin(), f.end(), data.x.row(i).begin());
    const auto out = app.run_region(problems[i]).outputs;
    std::copy(out.begin(), out.end(), data.y.row(i).begin());
  }
  // Width must exceed the map's rank (identity MLPs are low-rank otherwise).
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 96;
  spec.act = nn::Activation::Identity;
  Rng rng(3);
  nn::Network net = nn::build_surrogate(spec, app.input_dim(), app.output_dim(), rng);
  nn::TrainOptions topts;
  topts.epochs = 300;
  topts.lr = 5e-3;
  topts.patience = 50;
  nas::PipelineModel pm;
  pm.surrogate = nn::train_surrogate(std::move(net), data, topts);
  if (corruption > 0.0) {
    for (Tensor* p : pm.surrogate.net.params()) {
      for (double& v : p->flat()) v *= (1.0 + corruption);
    }
  }
  pm.spec = spec;
  return pm;
}

TEST(Evaluation, GoodModelHitsAndSpeedsUp) {
  auto app = apps::make_application("MG");
  app->generate_problems(160, 11);
  std::vector<std::size_t> train(150), eval(10);
  std::iota(train.begin(), train.end(), 0);
  std::iota(eval.begin(), eval.end(), 150);
  const nas::PipelineModel pm = oracle_like_model(*app, train, 0.0);
  const AppEvaluation ev =
      evaluate_pipeline(*app, eval, pm, runtime::DeviceModel{});
  EXPECT_GT(ev.hit_rate, 0.8);
  EXPECT_GT(ev.speedup, 1.0);
  EXPECT_GT(ev.breakdown.run, 0.0);
  EXPECT_GT(ev.breakdown.fetch, 0.0);
}

TEST(Evaluation, FallbackChargesExactTimeOnMisses) {
  auto app = apps::make_application("MG");
  app->generate_problems(160, 13);
  std::vector<std::size_t> train(150), eval(10);
  std::iota(train.begin(), train.end(), 0);
  std::iota(eval.begin(), eval.end(), 150);
  // Heavy corruption: everything misses.
  const nas::PipelineModel pm = oracle_like_model(*app, train, 10.0);

  EvalOptions with_fallback;
  const AppEvaluation ev_fb = evaluate_pipeline(*app, eval, pm,
                                                runtime::DeviceModel{}, with_fallback);
  EvalOptions no_fallback;
  no_fallback.fallback_on_miss = false;
  const AppEvaluation ev_nf = evaluate_pipeline(*app, eval, pm,
                                                runtime::DeviceModel{}, no_fallback);
  EXPECT_LT(ev_fb.hit_rate, 0.5);
  // Restart-on-miss makes the surrogate path strictly slower.
  EXPECT_GT(ev_nf.speedup, ev_fb.speedup);
  EXPECT_LT(ev_fb.speedup, 1.05);
}

TEST(Evaluation, BreakdownSumsToOnlineTotal) {
  auto app = apps::make_application("Laghos");
  app->generate_problems(20, 17);
  std::vector<std::size_t> train(15), eval(5);
  std::iota(train.begin(), train.end(), 0);
  std::iota(eval.begin(), eval.end(), 15);
  const nas::PipelineModel pm = oracle_like_model(*app, train, 0.0);
  EvalOptions opts;
  opts.fallback_on_miss = false;
  const AppEvaluation ev =
      evaluate_pipeline(*app, eval, pm, runtime::DeviceModel{}, opts);
  double others = 0.0;
  for (std::size_t p : eval) others += app->other_part_seconds(p);
  // surrogate_seconds ~ online breakdown + other-part time (other-part is
  // re-measured so allow generous slack).
  EXPECT_NEAR(ev.surrogate_seconds, ev.breakdown.total() + others,
              0.5 * ev.surrogate_seconds);
}

/// A fixed table of input rows behind the Application interface, with the
/// sparse input path switchable, so the evaluation's phase accounting can be
/// checked on chosen inputs. Every problem hits; the surrogate outputs each
/// problem is scored on are kept in `scored`.
class TableApp : public apps::Application {
 public:
  TableApp(std::vector<std::vector<double>> rows, std::size_t outputs, bool sparse)
      : rows_(std::move(rows)), outputs_(outputs), sparse_(sparse) {}

  std::string name() const override { return "table"; }
  apps::AppType type() const override { return apps::AppType::TypeI; }
  std::string replaced_function() const override { return "lookup"; }
  std::string qoi_name() const override { return "none"; }
  void generate_problems(std::size_t, std::uint64_t) override {}
  std::size_t problem_count() const override { return rows_.size(); }
  std::size_t input_dim() const override { return rows_.front().size(); }
  std::size_t output_dim() const override { return outputs_; }
  std::vector<double> input_features(std::size_t i) const override { return rows_.at(i); }
  bool has_sparse_input() const override { return sparse_; }
  apps::RegionRun run_region(std::size_t) const override {
    apps::RegionRun run;
    run.outputs.assign(outputs_, 0.0);
    run.region_seconds = 1e-3;
    return run;
  }
  double other_part_seconds(std::size_t) const override { return 0.0; }
  double qoi(std::size_t, std::span<const double>) const override { return 0.0; }
  double qoi_error(std::size_t, std::span<const double>,
                   std::span<const double> surrogate_outputs) const override {
    scored.emplace_back(surrogate_outputs.begin(), surrogate_outputs.end());
    return 0.0;
  }

  mutable std::vector<std::vector<double>> scored;

 private:
  std::vector<std::vector<double>> rows_;
  std::size_t outputs_;
  bool sparse_;
};

nas::PipelineModel one_layer_model(std::size_t in, std::size_t out, Rng& rng) {
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  nas::PipelineModel pm;
  pm.surrogate.net = nn::build_surrogate(spec, in, out, rng);
  pm.spec = spec;
  return pm;
}

TEST(Evaluation, BreakdownSumsTheModeledPhasesOfEveryProblem) {
  Rng rng(2);
  const nas::PipelineModel pm = one_layer_model(6, 3, rng);
  const TableApp app({{1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1}}, 3, /*sparse=*/false);
  const std::vector<std::size_t> problems{0, 1};
  const runtime::DeviceModel dev;
  const AppEvaluation ev = evaluate_pipeline(app, problems, pm, dev);
  ASSERT_EQ(app.scored.size(), 2u);
  EXPECT_EQ(app.scored[0].size(), 3u);
  const std::vector<std::size_t> first{0};
  const AppEvaluation one = evaluate_pipeline(app, first, pm, dev);

  EXPECT_EQ(ev.breakdown.fetch, 2 * dev.transfer_seconds(sizeof(double) * 6));
  EXPECT_EQ(ev.breakdown.encode, 0.0);  // no encoder, no encode phase
  EXPECT_EQ(ev.breakdown.load, 2 * dev.spec().model_load_latency);
  EXPECT_GT(ev.breakdown.run, 0.0);
  EXPECT_EQ(ev.breakdown.run, 2 * one.breakdown.run);
  // Every problem hits and the app has no other part: the surrogate path
  // costs exactly its online phases.
  EXPECT_DOUBLE_EQ(ev.surrogate_seconds, ev.breakdown.total());
}

TEST(Evaluation, SparseFetchShipsFewerBytesWithSameOutputs) {
  Rng rng(3);
  const std::size_t width = 400;
  const nas::PipelineModel pm = one_layer_model(width, 2, rng);
  // One very sparse row, served through the CSR path and densified.
  const Tensor dense = sparse::random_sparse(1, width, 0.02, rng).to_dense();
  const std::vector<std::vector<double>> rows{{dense.row(0).begin(), dense.row(0).end()}};
  const TableApp sparse_app(rows, 2, /*sparse=*/true);
  const TableApp dense_app(rows, 2, /*sparse=*/false);
  const std::vector<std::size_t> problems{0};
  const AppEvaluation s = evaluate_pipeline(sparse_app, problems, pm, runtime::DeviceModel{});
  const AppEvaluation d = evaluate_pipeline(dense_app, problems, pm, runtime::DeviceModel{});

  // The sparse fetch moves the compressed payload only (§4.2's saving).
  EXPECT_LT(s.breakdown.fetch, d.breakdown.fetch);
  EXPECT_EQ(s.breakdown.run, d.breakdown.run);
  // Same math, same outputs.
  ASSERT_EQ(sparse_app.scored.size(), 1u);
  ASSERT_EQ(dense_app.scored.size(), 1u);
  ASSERT_EQ(sparse_app.scored[0].size(), dense_app.scored[0].size());
  for (std::size_t i = 0; i < sparse_app.scored[0].size(); ++i) {
    EXPECT_NEAR(sparse_app.scored[0][i], dense_app.scored[0][i], 1e-9);
  }
}

TEST(Evaluation, EncoderAddsEncodePhase) {
  Rng rng(4);
  autoencoder::AutoencoderConfig acfg;
  acfg.latent_dim = 4;
  nas::PipelineModel pm = one_layer_model(4, 2, rng);
  pm.encoder = std::make_shared<autoencoder::Autoencoder>(16, acfg);
  pm.latent_k = 4;
  const TableApp app({std::vector<double>(16, 0.5)}, 2, /*sparse=*/false);
  const std::vector<std::size_t> problems{0};
  const AppEvaluation ev = evaluate_pipeline(app, problems, pm, runtime::DeviceModel{});
  EXPECT_GT(ev.breakdown.encode, 0.0);
  ASSERT_EQ(app.scored.size(), 1u);
  EXPECT_EQ(app.scored[0].size(), 2u);
}

TEST(Pipeline, MiniEndToEndOnMg) {
  Config cfg;
  cfg.train_problems = 120;
  cfg.valid_problems = 8;
  cfg.eval_problems = 12;
  cfg.outer_iterations = 1;
  cfg.inner_iterations = 2;
  cfg.num_epoch = 60;
  cfg.retrain_epochs = 120;
  cfg.ae_epochs = 15;
  const AutoHPCnet framework(cfg);
  auto app = apps::make_application("MG");
  const PipelineResult res = framework.run(*app);
  EXPECT_GT(res.search.evaluations(), 0u);
  EXPECT_GT(res.offline.sample_generation_seconds, 0.0);
  EXPECT_GT(res.offline.search_seconds, 0.0);
  EXPECT_EQ(res.eval_problems.size(), 12u);
  EXPECT_GE(res.evaluation.hit_rate, 0.0);
  EXPECT_LE(res.evaluation.hit_rate, 1.0);
}

/// A small Canneal build at the repository benchmark's search budget
/// (outer 2, inner 3): its reference arm and both outer iterates are arms of
/// one team.
Config small_canneal_config() {
  Config cfg;
  cfg.train_problems = 120;
  cfg.valid_problems = 8;
  cfg.eval_problems = 12;
  cfg.outer_iterations = 2;
  cfg.inner_iterations = 3;
  cfg.num_epoch = 60;
  cfg.retrain_epochs = 120;
  cfg.ae_epochs = 15;
  return cfg;
}

/// Every searched step, the winner, its evaluation and its predictions on
/// the held-out problems of a Canneal build at a team budget, as bits, and
/// the winner's spec.
std::pair<std::vector<double>, std::string> canneal_build(const Config& cfg, int team) {
  const team_test::ScopedTeamBudget budget(team);
  auto app = apps::make_application("Canneal");
  PipelineResult res = AutoHPCnet(cfg).run(*app);
  std::vector<double> bits;
  for (const nas::SearchStep& s : res.search.steps) {
    bits.insert(bits.end(), {static_cast<double>(s.latent_k), s.quality_error,
                             s.hit_share, s.modeled_infer_seconds, s.encoding_miss});
  }
  bits.insert(bits.end(), {static_cast<double>(res.model.latent_k),
                           res.model.quality_error, res.evaluation.hit_rate,
                           res.evaluation.mean_qoi_error});
  for (const std::size_t p : res.eval_problems) {
    const std::vector<double> y = res.model.infer(app->input_features(p));
    bits.insert(bits.end(), y.begin(), y.end());
  }
  return std::make_pair(bits, res.model.spec.describe());
}

void expect_full_team_build_matches_serial(const Config& cfg) {
  const auto serial = canneal_build(cfg, 1);
  const auto full = canneal_build(cfg, 4);
  EXPECT_EQ(full.second, serial.second);
  ASSERT_EQ(full.first.size(), serial.first.size());
  EXPECT_EQ(0, std::memcmp(full.first.data(), serial.first.data(),
                           serial.first.size() * sizeof(double)))
      << "the build at a full team differs from the serial build";
}

// The search runs its reference arm and outer initial design concurrently
// at a full team: the whole build must be the bits of the serial one.
TEST(Pipeline, CannealRunAtFullTeamMatchesTeamOfOne) {
  expect_full_team_build_matches_serial(small_canneal_config());
}

// search_workers = 4 proposes and trains four candidates per inner round.
// With one draw of initial design the second outer iterate runs after the
// arm team, so its rounds fork the full team as whole tasks.
TEST(Pipeline, CannealRunWithFourSearchWorkersAtFullTeamMatchesTeamOfOne) {
  Config cfg = small_canneal_config();
  cfg.search_workers = 4;
  cfg.bayesian_init = 1;
  expect_full_team_build_matches_serial(cfg);
}

// Arms run on OpenMP workers, whose own span context is empty: each arm's
// spans must still open under the search span, inside the pipeline's trace.
TEST(Pipeline, TracedRunAtFullTeamKeepsEveryNasSpanInThePipelineTrace) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  {
    const team_test::ScopedTeamBudget budget(4);
    auto app = apps::make_application("Canneal");
    (void)AutoHPCnet(small_canneal_config()).run(*app);
  }
  const obs::TracerSnapshot snap = tracer.snapshot();
  const auto named = [&](const std::string& name) {
    std::vector<obs::SpanRecord> out;
    for (const obs::SpanRecord& r : snap.recent) {
      if (r.name == name) out.push_back(r);
    }
    return out;
  };
  const std::vector<obs::SpanRecord> pipeline = named("offline.pipeline");
  const std::vector<obs::SpanRecord> search = named("offline.search");
  ASSERT_EQ(pipeline.size(), 1u);
  ASSERT_EQ(search.size(), 1u);
  std::map<std::string, std::size_t> nas_spans;
  for (const obs::SpanRecord& r : snap.recent) {
    if (r.name.rfind("nas.", 0) != 0) continue;
    ++nas_spans[r.name];
    EXPECT_EQ(r.trace_id, pipeline[0].trace_id) << r.name;
  }
  // One inner search per arm; the reference arm's and each outer iterate's
  // top span parent directly under the search.
  EXPECT_EQ(nas_spans["nas.inner_search"], 3u);
  EXPECT_EQ(nas_spans["nas.outer_iteration"], 2u);
  EXPECT_EQ(nas_spans["nas.autoencoder_train"], 2u);
  std::size_t under_search = 0;
  for (const obs::SpanRecord& r : snap.recent) {
    if (r.parent_span_id == search[0].span_id && r.name.rfind("nas.", 0) == 0) ++under_search;
  }
  EXPECT_EQ(under_search, 3u);  // the reference inner search + 2 outer iterates
}

TEST(Pipeline, MakeTaskCountsHitShareAtMuAndPricesExactRegion) {
  Config cfg;
  cfg.mu = 0.07;  // off the 0.1 default, so the task must carry it
  cfg.num_epoch = 20;
  const AutoHPCnet framework(cfg);
  auto app = apps::make_application("Canneal");
  app->generate_problems(40, 5);
  std::vector<std::size_t> train(32), valid(8);
  std::iota(train.begin(), train.end(), 0);
  std::iota(valid.begin(), valid.end(), 32);

  std::shared_ptr<sparse::Csr> storage_a, storage_b;
  const nas::SearchTask a =
      framework.make_task(*app, framework.acquire_samples(*app, train), valid, storage_a);
  const nas::SearchTask b =
      framework.make_task(*app, framework.acquire_samples(*app, train), valid, storage_b);

  // T_exact: the mean modeled cost of the validation problems' exact runs,
  // priced from analytic op counts, so two calls agree bitwise.
  double exact = 0.0;
  for (std::size_t p : valid) {
    exact += runtime::DeviceModel{}.kernel_seconds(app->run_region(p).region_ops,
                                                   runtime::sparse_solver_profile());
  }
  exact /= static_cast<double>(valid.size());
  EXPECT_GT(a.exact_seconds, 0.0);
  EXPECT_EQ(a.exact_seconds, exact);
  EXPECT_EQ(a.exact_seconds, b.exact_seconds);
  EXPECT_EQ(a.mu, cfg.mu);

  // ĥ is the share of validation problems within mu, from the same replay
  // that yields f_e.
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 16;
  spec.act = nn::Activation::Identity;
  const nas::PipelineModel pm = nas::evaluate_candidate(a, spec, nullptr, a.data, Rng(9));
  const std::vector<double> errors = a.evaluate_quality(pm);
  ASSERT_EQ(errors.size(), valid.size());
  const auto hits = std::count_if(errors.begin(), errors.end(),
                                  [&](double e) { return e <= cfg.mu; });
  EXPECT_EQ(pm.hit_share, static_cast<double>(hits) / static_cast<double>(valid.size()));
  EXPECT_EQ(pm.quality_error,
            std::accumulate(errors.begin(), errors.end(), 0.0) /
                static_cast<double>(valid.size()));
}

TEST(Pipeline, AcquireSamplesShapes) {
  Config cfg;
  const AutoHPCnet framework(cfg);
  auto app = apps::make_application("miniQMC");
  app->generate_problems(10, 3);
  std::vector<std::size_t> ids(10);
  std::iota(ids.begin(), ids.end(), 0);
  const nn::Dataset data = framework.acquire_samples(*app, ids);
  EXPECT_EQ(data.size(), 10u);
  EXPECT_EQ(data.in_features(), app->input_dim());
  EXPECT_EQ(data.out_features(), app->output_dim());
}

// A problem id the app does not have throws out of acquire_samples, as it
// did from the serial loop. The bad id is the last iteration, which a team
// of two or more hands to a thread other than the caller's.
TEST(Pipeline, AcquireSamplesRethrowsAnOutOfRangeProblemAfterTheTeam) {
  const AutoHPCnet framework{Config{}};
  auto app = apps::make_application("Blackscholes");
  app->generate_problems(team_test::kMinTeamIterations, 5);
  std::vector<std::size_t> ids(team_test::kMinTeamIterations);
  std::iota(ids.begin(), ids.end(), 0);
  ids.back() = app->problem_count();
  ASSERT_TRUE(team_test::forks_full_team(ids.size() * kParallelGrain, ids.size()));
  team_test::at_team_budgets([&] {
    EXPECT_THROW((void)framework.acquire_samples(*app, ids), std::out_of_range);
    return 0;
  });
}

// acquire_samples runs the problems' exact regions in parallel: at every team
// budget each app's samples must be the bits of a serial loop over run_region.
TEST(Pipeline, AcquireSamplesBitwiseAcrossTeamBudgets) {
  const AutoHPCnet framework{Config{}};
  constexpr std::size_t kProblems = team_test::kMinTeamIterations + 2;
  std::vector<std::size_t> ids(kProblems);
  std::iota(ids.begin(), ids.end(), 0);
  ASSERT_TRUE(team_test::forks_full_team(kProblems * kParallelGrain, kProblems));
  const std::vector<std::string> names = apps::application_names();
  ASSERT_EQ(names.size(), 11u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto app = apps::make_application(name);
    app->generate_problems(kProblems, 17);
    std::vector<double> serial;
    for (std::size_t i : ids) {
      const std::vector<double> f = app->input_features(i);
      serial.insert(serial.end(), f.begin(), f.end());
    }
    for (std::size_t i : ids) {
      const std::vector<double> y = app->run_region(i).outputs;
      serial.insert(serial.end(), y.begin(), y.end());
    }
    const std::vector<std::vector<double>> outs = team_test::at_team_budgets([&] {
      const nn::Dataset d = framework.acquire_samples(*app, ids);
      std::vector<double> flat(d.x.flat().begin(), d.x.flat().end());
      flat.insert(flat.end(), d.y.flat().begin(), d.y.flat().end());
      return flat;
    });
    team_test::expect_bitwise_equal(outs);
    ASSERT_EQ(outs[0].size(), serial.size());
    EXPECT_EQ(0, std::memcmp(outs[0].data(), serial.data(), serial.size() * sizeof(double)))
        << "acquired samples differ from a serial loop over run_region";
  }
}

}  // namespace
}  // namespace ahn::core
