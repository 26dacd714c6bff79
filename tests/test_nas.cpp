// Tests for src/nas and src/baselines: candidate evaluation, the 2D
// hierarchical search (feasibility, quality-bound behaviour, checkpoint
// round trip, warm start, concurrent arms at any team size), the
// Autokeras-like/grid/flat-joint comparators, loop-perforation tuning and
// the ACCEPT baseline.

#include <gtest/gtest.h>

#include <omp.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/registry.hpp"
#include "baselines/accept.hpp"
#include "baselines/perforation.hpp"
#include "nas/baseline_searchers.hpp"
#include "nas/ltfb.hpp"
#include "nas/two_d_nas.hpp"
#include "nn/topology.hpp"
#include "obs/trace.hpp"
#include "runtime/orchestrator.hpp"
#include "tensor/ops.hpp"
#include "team_budgets.hpp"

namespace ahn::nas {
namespace {

/// A controlled synthetic search task: y = W x with x of dimension `width`
/// but intrinsic rank 4, so feature reduction genuinely helps. Quality is
/// the mean relative prediction error on a held-out slice.
SearchTask make_synthetic_task(std::size_t width, std::size_t samples = 160) {
  Rng rng(11);
  const std::size_t rank = 4, out = 6;
  Tensor basis = Tensor::randn({rank, width}, rng);
  Tensor w = Tensor::randn({width, out}, rng, 0.2);

  SearchTask task;
  task.data.x = Tensor({samples, width});
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<double> c(rank);
    for (auto& v : c) v = rng.uniform(-1, 1);
    for (std::size_t j = 0; j < width; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < rank; ++r) acc += c[r] * basis.at(r, j);
      task.data.x.at(i, j) = acc;
    }
  }
  task.data.y = ops::matmul(task.data.x, w);

  // Hold out the last 20 rows for the quality probe.
  auto holdout = std::make_shared<nn::Dataset>();
  std::vector<std::size_t> rows(20);
  std::iota(rows.begin(), rows.end(), samples - 20);
  *holdout = task.data.subset(rows);

  task.evaluate_quality = [holdout](const PipelineModel& pm) {
    std::vector<double> errors(holdout->size());
    for (std::size_t i = 0; i < holdout->size(); ++i) {
      const std::vector<double> feat(holdout->x.row(i).begin(), holdout->x.row(i).end());
      const std::vector<double> pred = pm.infer(feat);
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < pred.size(); ++j) {
        const double d = pred[j] - holdout->y.at(i, j);
        num += d * d;
        den += holdout->y.at(i, j) * holdout->y.at(i, j);
      }
      errors[i] = std::sqrt(num / (den + 1e-30));
    }
    return errors;
  };
  task.quality_bound = 0.2;
  task.train.epochs = 60;
  task.train.lr = 5e-3;
  task.seed = 5;
  return task;
}

/// Wraps a task's quality callback and records, per autoencoder (null for
/// full-input candidates), the threads that scored candidates inside an
/// OpenMP team. An arm of the 2D search or an LTFB worker scores all of its
/// own candidates on one thread, so two threads under one key mean a batch
/// of whole tasks really forked. Holding the autoencoders keeps their
/// addresses from being reused as keys.
class TeamProbe {
 public:
  explicit TeamProbe(SearchTask& task) : quality_(task.evaluate_quality) {
    task.evaluate_quality = [this](const PipelineModel& pm) {
      if (omp_in_parallel()) {
        const std::lock_guard<std::mutex> lock(mu_);
        threads_[pm.encoder].insert(std::this_thread::get_id());
      }
      return quality_(pm);
    };
  }
  TeamProbe(const TeamProbe&) = delete;
  TeamProbe& operator=(const TeamProbe&) = delete;

  [[nodiscard]] bool forked() const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : threads_) {
      if (entry.second.size() > 1) return true;
    }
    return false;
  }

 private:
  const std::function<std::vector<double>(const PipelineModel&)> quality_;
  mutable std::mutex mu_;
  std::map<std::shared_ptr<const autoencoder::Autoencoder>, std::set<std::thread::id>>
      threads_;
};

/// A batch forks at a team budget above 1 only outside TSan builds, which
/// keep the process's budget (team_budgets.hpp).
void expect_forked(const TeamProbe& probe) {
  if (!team_test::kThreadSanitizer) EXPECT_TRUE(probe.forked());
}

/// `search()` under TeamOfOne and at every budget of team_test::kTeamBudgets.
template <typename Search>
auto serial_and_team_runs(Search&& search) {
  using Result = decltype(search());
  std::pair<Result, std::vector<Result>> runs;
  {
    const TeamOfOne one;
    runs.first = search();
  }
  runs.second = team_test::at_team_budgets(search);
  return runs;
}

TEST(EvaluateCandidate, FillsObjectives) {
  const SearchTask task = make_synthetic_task(24);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 16;
  spec.act = nn::Activation::Identity;
  Rng rng(1);
  const PipelineModel pm = evaluate_candidate(task, spec, nullptr, task.data, rng);
  EXPECT_LT(pm.quality_error, 0.5);
  EXPECT_GT(pm.modeled_infer_seconds, 0.0);
  EXPECT_EQ(pm.latent_k, 0u);
}

TEST(EvaluateCandidate, DerivesMeanErrorAndHitShareFromOneReplay) {
  SearchTask task = make_synthetic_task(12);
  std::size_t calls = 0;
  task.evaluate_quality = [&calls](const PipelineModel&) {
    ++calls;
    return std::vector<double>{0.02, 0.3, 0.1, 0.05};
  };
  task.mu = 0.1;
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  const PipelineModel pm = evaluate_candidate(task, spec, nullptr, task.data, Rng(3));
  EXPECT_EQ(calls, 1u);
  EXPECT_DOUBLE_EQ(pm.quality_error, (0.02 + 0.3 + 0.1 + 0.05) / 4.0);
  EXPECT_DOUBLE_EQ(pm.hit_share, 0.75);  // 0.1 itself is within mu
}

// --------------------------------------------- the one search comparator

PipelineModel scored(double quality_error, double infer_seconds, double hit_share) {
  PipelineModel pm;
  pm.quality_error = quality_error;
  pm.modeled_infer_seconds = infer_seconds;
  pm.hit_share = hit_share;
  return pm;
}

SearchTask comparator_task(double exact_seconds) {
  SearchTask task;
  task.quality_bound = 0.1;
  task.exact_seconds = exact_seconds;
  return task;
}

TEST(BetterPipeline, HigherHitShareBeatsCheaperInferenceOnceMissesCost) {
  // Canneal's shape: the full-input model costs 0.01 us more per call but
  // misses one validation problem in twenty instead of two.
  const SearchTask task = comparator_task(9.87e-6);
  const PipelineModel fewer_misses = scored(0.040, 8.04e-6, 0.95);
  const PipelineModel cheaper = scored(0.046, 8.03e-6, 0.90);
  EXPECT_NEAR(task.expected_online_seconds(fewer_misses), 8.5335e-6, 1e-12);
  EXPECT_NEAR(task.expected_online_seconds(cheaper), 9.017e-6, 1e-12);
  EXPECT_TRUE(better_pipeline(fewer_misses, cheaper, task));
  EXPECT_FALSE(better_pipeline(cheaper, fewer_misses, task));
}

TEST(BetterPipeline, EqualHitShareFallsBackToInferenceTime) {
  const SearchTask task = comparator_task(9.87e-6);
  const PipelineModel fast = scored(0.09, 5e-6, 0.9);
  const PipelineModel slow = scored(0.01, 6e-6, 0.9);
  EXPECT_TRUE(better_pipeline(fast, slow, task));
  EXPECT_FALSE(better_pipeline(slow, fast, task));
  EXPECT_FALSE(better_pipeline(fast, fast, task));
}

TEST(BetterPipeline, NoExactRegionRanksFeasibleByInferenceTimeAlone) {
  const SearchTask task = comparator_task(0.0);
  const std::vector<PipelineModel> models = {
      scored(0.040, 8.04e-6, 0.95), scored(0.046, 8.03e-6, 0.90),
      scored(0.099, 2e-6, 0.10),    scored(0.300, 1e-6, 0.00),
      scored(0.250, 9e-6, 0.60),    scored(0.100, 8.03e-6, 1.00)};
  for (const PipelineModel& a : models) {
    for (const PipelineModel& b : models) {
      const bool fa = a.quality_error <= task.quality_bound;
      const bool fb = b.quality_error <= task.quality_bound;
      const bool f_c_rule =
          fa != fb ? fa
                   : (fa ? a.modeled_infer_seconds < b.modeled_infer_seconds
                         : a.quality_error < b.quality_error);
      EXPECT_EQ(better_pipeline(a, b, task), f_c_rule);
    }
    EXPECT_EQ(task.expected_online_seconds(a), a.modeled_infer_seconds);
  }
}

TEST(BetterPipeline, InfeasibleCandidatesRankByQualityError) {
  const SearchTask task = comparator_task(1e-3);
  const PipelineModel closer = scored(0.15, 9e-6, 0.10);
  const PipelineModel more_hits = scored(0.20, 1e-6, 0.80);
  EXPECT_TRUE(better_pipeline(closer, more_hits, task));
  EXPECT_FALSE(better_pipeline(more_hits, closer, task));
  // Feasibility still comes first, whatever E says.
  const PipelineModel feasible = scored(0.10, 9e-6, 0.0);
  EXPECT_TRUE(better_pipeline(feasible, more_hits, task));
  EXPECT_FALSE(better_pipeline(more_hits, feasible, task));
}

/// Rebuilds the objectives a search step recorded, for comparator checks.
PipelineModel scored(const SearchStep& s) {
  return scored(s.quality_error, s.modeled_infer_seconds, s.hit_share);
}

/// No feasible step of `res` has a lower expected online time than its pick.
void expect_best_minimizes_expected_time(const NasResult& res, const SearchTask& task) {
  ASSERT_TRUE(res.found_feasible);
  const double best = task.expected_online_seconds(res.best);
  for (const SearchStep& s : res.steps) {
    if (s.quality_error > task.quality_bound) continue;
    EXPECT_GE(task.expected_online_seconds(scored(s)), best)
        << "K=" << s.latent_k << " " << s.spec.describe();
    EXPECT_FALSE(better_pipeline(scored(s), res.best, task));
  }
}

TEST(TwoDNas, PicksTheLowestExpectedOnlineTime) {
  SearchTask task = make_synthetic_task(16);
  task.exact_seconds = 1e-3;  // a miss costs ~100 inferences
  NasOptions opts;
  opts.outer_iterations = 2;
  opts.inner_iterations = 3;
  opts.k_min = 2;
  opts.k_max = 12;
  opts.ae_epochs = 30;
  const NasResult res = TwoDNas(opts).search(task);
  expect_best_minimizes_expected_time(res, task);
}

TEST(FlatJointNas, PicksTheLowestExpectedOnlineTime) {
  SearchTask task = make_synthetic_task(16);
  task.exact_seconds = 1e-3;
  FlatJointOptions opts;
  opts.iterations = 4;
  opts.k_min = 2;
  opts.k_max = 12;
  opts.ae_epochs = 30;
  const NasResult res = FlatJointNas(opts).search(task);
  expect_best_minimizes_expected_time(res, task);
}

TEST(PipelineModel, InferMatchesSurrogatePredict) {
  const SearchTask task = make_synthetic_task(12);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  spec.act = nn::Activation::Identity;
  Rng rng(2);
  const PipelineModel pm = evaluate_candidate(task, spec, nullptr, task.data, rng);
  const std::vector<double> feat(task.data.x.row(0).begin(), task.data.x.row(0).end());
  const std::vector<double> out = pm.infer(feat);
  EXPECT_EQ(out.size(), 6u);
}

TEST(TwoDNas, FindsFeasiblePipelineOnSyntheticTask) {
  const SearchTask task = make_synthetic_task(32);
  NasOptions opts;
  opts.outer_iterations = 2;
  opts.inner_iterations = 3;
  opts.k_min = 2;
  opts.k_max = 16;
  opts.ae_epochs = 40;
  const TwoDNas nas(opts);
  const NasResult res = nas.search(task);
  EXPECT_TRUE(res.found_feasible);
  EXPECT_LE(res.best.quality_error, task.quality_bound);
  EXPECT_GT(res.evaluations(), 3u);
  EXPECT_GT(res.search_seconds, 0.0);
}

TEST(TwoDNas, FullInputModeSkipsEncoder) {
  const SearchTask task = make_synthetic_task(16);
  NasOptions opts;
  opts.search_type = SearchType::FullInput;
  opts.inner_iterations = 3;
  const TwoDNas nas(opts);
  const NasResult res = nas.search(task);
  EXPECT_EQ(res.best.encoder, nullptr);
  EXPECT_EQ(res.best.latent_k, 0u);
}

TEST(TwoDNas, UserModelSeedIsEvaluatedFirst) {
  const SearchTask task = make_synthetic_task(16);
  NasOptions opts;
  opts.search_type = SearchType::UserModel;
  opts.user_model.num_layers = 3;
  opts.user_model.hidden_units = 24;
  opts.inner_iterations = 2;
  opts.outer_iterations = 1;
  const TwoDNas nas(opts);
  const NasResult res = nas.search(task);
  ASSERT_FALSE(res.steps.empty());
  EXPECT_EQ(res.steps.front().spec.num_layers, 3u);
  EXPECT_EQ(res.steps.front().spec.hidden_units, 24u);
}

TEST(TwoDNas, CheckpointRoundTrip) {
  const SearchTask task = make_synthetic_task(16);
  NasOptions opts;
  opts.outer_iterations = 1;
  opts.inner_iterations = 2;
  const TwoDNas nas(opts);
  const NasResult res = nas.search(task);

  std::stringstream ss;
  TwoDNas::save_checkpoint(ss, res);
  const std::vector<SearchStep> loaded = TwoDNas::load_checkpoint(ss);
  ASSERT_EQ(loaded.size(), res.steps.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].latent_k, res.steps[i].latent_k);
    EXPECT_EQ(loaded[i].spec.hidden_units, res.steps[i].spec.hidden_units);
    EXPECT_EQ(loaded[i].spec.act, res.steps[i].spec.act);
    EXPECT_DOUBLE_EQ(loaded[i].quality_error, res.steps[i].quality_error);
    EXPECT_DOUBLE_EQ(loaded[i].hit_share, res.steps[i].hit_share);
  }
}

TEST(TwoDNas, WarmStartConsumesPriorSteps) {
  const SearchTask task = make_synthetic_task(16);
  NasOptions opts;
  opts.outer_iterations = 1;
  opts.inner_iterations = 2;
  const TwoDNas nas(opts);
  const NasResult first = nas.search(task);
  const NasResult second = nas.search_from(task, first.steps);
  EXPECT_GT(second.evaluations(), first.evaluations());
}

// ------------------------------ concurrent arms of the hierarchical search

/// The arms of one search (reference arm + outer initial design) run
/// concurrently on a team; the serial search runs them one after another.
constexpr int kFullTeam = 4;

/// Every step and the winning model of `a` and `b` are the same bits.
void expect_same_search(const NasResult& a, const NasResult& b, const SearchTask& task) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const SearchStep& x = a.steps[i];
    const SearchStep& y = b.steps[i];
    EXPECT_EQ(x.outer_iteration, y.outer_iteration);
    EXPECT_EQ(x.latent_k, y.latent_k);
    EXPECT_EQ(x.spec, y.spec);
    EXPECT_EQ(x.quality_error, y.quality_error);
    EXPECT_EQ(x.hit_share, y.hit_share);
    EXPECT_EQ(x.modeled_infer_seconds, y.modeled_infer_seconds);
    EXPECT_EQ(x.encoding_miss, y.encoding_miss);
  }
  EXPECT_EQ(a.found_feasible, b.found_feasible);
  EXPECT_EQ(a.best.latent_k, b.best.latent_k);
  EXPECT_EQ(a.best.spec, b.best.spec);
  EXPECT_EQ(a.best.quality_error, b.best.quality_error);
  ASSERT_GT(a.best.surrogate.net.layer_count(), 0u);
  for (std::size_t r = 0; r < task.data.size(); r += 7) {
    const std::vector<double> feat(task.data.x.row(r).begin(), task.data.x.row(r).end());
    EXPECT_EQ(a.best.infer(feat), b.best.infer(feat)) << "row " << r;
  }
}

/// The search at a full team and under TeamOfOne must be the same bits.
NasResult expect_team_invariant_search(const NasOptions& opts, const SearchTask& task,
                                       const std::vector<SearchStep>& prior = {}) {
  NasResult full;
  {
    const team_test::ScopedTeamBudget team(kFullTeam);
    full = TwoDNas(opts).search_from(task, prior);
  }
  NasResult serial;
  {
    const TeamOfOne one;
    serial = TwoDNas(opts).search_from(task, prior);
  }
  expect_same_search(full, serial, task);
  return full;
}

NasOptions arm_test_options(std::size_t outer, std::size_t inner) {
  NasOptions opts;
  opts.outer_iterations = outer;
  opts.inner_iterations = inner;
  opts.k_min = 2;
  opts.k_max = 12;
  opts.ae_epochs = 20;
  return opts;
}

/// Outer iterates a search recorded (steps of encoder-backed candidates).
std::size_t outer_iterates(const NasResult& res) {
  std::size_t n = 0;
  for (const SearchStep& s : res.steps) {
    if (s.latent_k > 0) n = std::max(n, s.outer_iteration + 1);
  }
  return n;
}

TEST(TwoDNas, ConcurrentArmsMatchTeamOfOneAtBenchBudget) {
  const SearchTask task = make_synthetic_task(16);
  const NasResult res = expect_team_invariant_search(arm_test_options(2, 3), task);
  EXPECT_EQ(outer_iterates(res), 2u);
}

TEST(TwoDNas, ConcurrentArmsMatchTeamOfOneAtConfigDefaults) {
  const SearchTask task = make_synthetic_task(16);
  const NasResult res = expect_team_invariant_search(arm_test_options(3, 5), task);
  EXPECT_EQ(outer_iterates(res), 3u);
}

// One prior K-step leaves two draws of the initial design (both iterates run
// as arms); three leave none (both iterates run serially after the arm team).
TEST(TwoDNas, ConcurrentArmsMatchTeamOfOneWarmStarted) {
  const SearchTask task = make_synthetic_task(16);
  const NasResult first = TwoDNas(arm_test_options(1, 3)).search(task);
  std::vector<SearchStep> one_k_step, k_steps;
  for (const SearchStep& s : first.steps) {
    if (s.latent_k == 0) continue;
    if (one_k_step.empty()) one_k_step.push_back(s);
    k_steps.push_back(s);
  }
  ASSERT_EQ(one_k_step.size(), 1u);
  ASSERT_GE(k_steps.size(), 3u);
  for (const std::vector<SearchStep>* prior : {&one_k_step, &k_steps}) {
    SCOPED_TRACE(std::to_string(prior->size()) + " prior K-steps");
    const NasResult res = expect_team_invariant_search(arm_test_options(2, 3), task, *prior);
    EXPECT_GT(res.steps.size(), prior->size());
  }
}

// patience = 1 stops the search after the first outer iterate that does not
// improve the incumbent, inside the three-draw initial design: the arm run
// past the break is discarded, as if it had never run.
TEST(TwoDNas, ConcurrentArmsMatchTeamOfOneWhenPatienceBreaksTheInitialDesign) {
  const SearchTask task = make_synthetic_task(16);
  NasOptions opts = arm_test_options(3, 3);
  opts.patience = 1;
  const NasResult res = expect_team_invariant_search(opts, task);
  EXPECT_LT(outer_iterates(res), 3u);
}

TEST(TwoDNas, ConcurrentArmsMatchTeamOfOneAtOneInnerIteration) {
  const SearchTask task = make_synthetic_task(16);
  const NasResult res = expect_team_invariant_search(arm_test_options(2, 1), task);
  EXPECT_EQ(res.steps.size(), 3u);  // one reference step, one per outer iterate
}

// eval_batch = 3 with one draw of initial design: the second outer iterate
// runs after the arm team, and its rounds train their fresh candidates as
// whole tasks at the full team. Every step and the winner must be the
// TeamOfOne search's bits.
TEST(TwoDNas, BatchedRoundsMatchTeamOfOneExactly) {
  SearchTask task = make_synthetic_task(24);
  const TeamProbe probe(task);
  NasOptions opts = arm_test_options(2, 4);
  opts.ae_epochs = 30;
  opts.bayesian_init = 1;
  opts.eval_batch = 3;
  const NasResult res = expect_team_invariant_search(opts, task);
  EXPECT_EQ(outer_iterates(res), 2u);
  expect_forked(probe);
}

// Every outer iterate throws. At a full team both run; the error rethrown
// must be the first iterate's, the one the serial search stops at.
TEST(TwoDNas, ConcurrentArmsRethrowTheSerialSearchesError) {
  SearchTask task = make_synthetic_task(16);
  const auto quality = task.evaluate_quality;
  task.evaluate_quality = [quality](const PipelineModel& pm) {
    if (pm.encoder != nullptr) {
      throw std::runtime_error("no quality at K=" + std::to_string(pm.latent_k));
    }
    return quality(pm);
  };
  const NasOptions opts = arm_test_options(2, 3);
  const auto message = [&](int team) {
    const team_test::ScopedTeamBudget budget(team);
    try {
      (void)TwoDNas(opts).search(task);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string serial = message(1);
  EXPECT_NE(serial.find("no quality at K="), std::string::npos) << serial;
  EXPECT_EQ(message(kFullTeam), serial);
}

/// The memo cache must hand back the recorded result when the BO re-proposes
/// a (K, theta) it has already trained: re-proposed specs show up as repeat
/// steps with identical objectives.
TEST(TwoDNas, MemoCacheReturnsIdenticalResultsForRepeatedSpecs) {
  const SearchTask task = make_synthetic_task(16);
  NasOptions opts;
  opts.search_type = SearchType::FullInput;
  opts.inner_iterations = 8;  // enough rounds that specs recur
  const NasResult res = TwoDNas(opts).search(task);
  for (std::size_t i = 0; i < res.steps.size(); ++i) {
    for (std::size_t j = i + 1; j < res.steps.size(); ++j) {
      const SearchStep& a = res.steps[i];
      const SearchStep& b = res.steps[j];
      const bool same_spec = a.spec.num_layers == b.spec.num_layers &&
                             a.spec.hidden_units == b.spec.hidden_units &&
                             a.spec.kind == b.spec.kind && a.spec.act == b.spec.act &&
                             a.spec.channels == b.spec.channels &&
                             a.spec.kernel == b.spec.kernel &&
                             a.spec.pool == b.spec.pool &&
                             a.spec.residual == b.spec.residual;
      if (same_spec) {
        EXPECT_EQ(a.quality_error, b.quality_error);
        EXPECT_EQ(a.modeled_infer_seconds, b.modeled_infer_seconds);
      }
    }
  }
}

TEST(GridSearch, TeamRunsMatchTeamOfOneExactly) {
  SearchTask task = make_synthetic_task(12);
  const TeamProbe probe(task);
  GridSearchOptions opts;
  opts.layer_grid = {1, 2};
  opts.unit_grid = {8, 16, 32};
  const auto [serial, teams] =
      serial_and_team_runs([&] { return GridSearch(opts).search(task); });
  for (const NasResult& res : teams) expect_same_search(res, serial, task);
  expect_forked(probe);
}

TEST(AutokerasLike, BatchedSearchMatchesTeamOfOneExactly) {
  SearchTask task = make_synthetic_task(16);
  const TeamProbe probe(task);
  AutokerasOptions opts;
  opts.iterations = 5;
  opts.eval_batch = 2;
  // Its candidates are full width and slow to train: one full-team run.
  NasResult serial, full;
  {
    const TeamOfOne one;
    serial = AutokerasLike(opts).search(task);
  }
  {
    const team_test::ScopedTeamBudget team(kFullTeam);
    full = AutokerasLike(opts).search(task);
  }
  expect_same_search(full, serial, task);
  expect_forked(probe);
}

TEST(AutokerasLike, SearchesWithoutQualityConstraint) {
  const SearchTask task = make_synthetic_task(24);
  AutokerasOptions opts;
  opts.iterations = 4;
  const AutokerasLike ak(opts);
  const NasResult res = ak.search(task);
  EXPECT_EQ(res.evaluations(), 4u);
  EXPECT_EQ(res.best.encoder, nullptr);  // never reduces features
}

TEST(GridSearch, EnumeratesFullGrid) {
  const SearchTask task = make_synthetic_task(12);
  GridSearchOptions opts;
  opts.layer_grid = {1, 2};
  opts.unit_grid = {8, 16};
  const GridSearch grid(opts);
  const NasResult res = grid.search(task);
  EXPECT_EQ(res.evaluations(), 4u);
}

TEST(FlatJointNas, RunsAndTracksEncodingMiss) {
  const SearchTask task = make_synthetic_task(24);
  FlatJointOptions opts;
  opts.iterations = 3;
  opts.k_min = 2;
  opts.k_max = 12;
  opts.ae_epochs = 30;
  const FlatJointNas flat(opts);
  const NasResult res = flat.search(task);
  EXPECT_EQ(res.evaluations(), 3u);
  for (const auto& s : res.steps) EXPECT_GT(s.latent_k, 0u);
}

// ------------------------------------------------------- LTFB population

PopulationOptions small_population(std::size_t population, std::size_t rounds) {
  PopulationOptions opts;
  opts.nas.inner_iterations = 2;
  opts.nas.k_min = 2;
  opts.nas.k_max = 8;
  opts.nas.ae_epochs = 25;
  opts.population = population;
  opts.rounds = rounds;
  return opts;
}

void expect_same_population_result(const PopulationResult& a, const PopulationResult& b) {
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t w = 0; w < a.workers.size(); ++w) {
    ASSERT_EQ(a.workers[w].steps.size(), b.workers[w].steps.size()) << "worker " << w;
    for (std::size_t i = 0; i < a.workers[w].steps.size(); ++i) {
      const SearchStep& sa = a.workers[w].steps[i];
      const SearchStep& sb = b.workers[w].steps[i];
      EXPECT_EQ(sa.latent_k, sb.latent_k) << "worker " << w << " step " << i;
      EXPECT_EQ(sa.spec.num_layers, sb.spec.num_layers);
      EXPECT_EQ(sa.spec.hidden_units, sb.spec.hidden_units);
      EXPECT_EQ(sa.spec.act, sb.spec.act);
      EXPECT_EQ(sa.quality_error, sb.quality_error);
      EXPECT_EQ(sa.modeled_infer_seconds, sb.modeled_infer_seconds);
    }
  }
  ASSERT_EQ(a.tournaments.size(), b.tournaments.size());
  for (std::size_t i = 0; i < a.tournaments.size(); ++i) {
    EXPECT_EQ(a.tournaments[i].round, b.tournaments[i].round);
    EXPECT_EQ(a.tournaments[i].winner, b.tournaments[i].winner);
    EXPECT_EQ(a.tournaments[i].loser, b.tournaments[i].loser);
    EXPECT_EQ(a.tournaments[i].adopted.latent_k, b.tournaments[i].adopted.latent_k);
    EXPECT_EQ(a.tournaments[i].adopted.spec.hidden_units,
              b.tournaments[i].adopted.spec.hidden_units);
  }
  EXPECT_EQ(a.best_worker, b.best_worker);
  EXPECT_EQ(a.best.latent_k, b.best.latent_k);
  EXPECT_EQ(a.best.spec.num_layers, b.best.spec.num_layers);
  EXPECT_EQ(a.best.spec.hidden_units, b.best.spec.hidden_units);
  EXPECT_EQ(a.best.quality_error, b.best.quality_error);
  EXPECT_EQ(a.best.modeled_infer_seconds, b.best.modeled_infer_seconds);
  EXPECT_EQ(a.found_feasible, b.found_feasible);
}

TEST(Ltfb, PairingIsDeterministicDisjointAndSitsOddWorkerOut) {
  for (const std::size_t p : {2u, 3u, 5u, 8u}) {
    for (std::size_t round = 0; round < 4; ++round) {
      const auto pairs = PopulationSearch::pairing(17, round, p);
      EXPECT_EQ(pairs.size(), p / 2) << "P=" << p;
      std::vector<bool> seen(p, false);
      for (const auto& [a, b] : pairs) {
        ASSERT_LT(a, p);
        ASSERT_LT(b, p);
        EXPECT_NE(a, b);
        EXPECT_FALSE(seen[a]) << "worker " << a << " paired twice";
        EXPECT_FALSE(seen[b]) << "worker " << b << " paired twice";
        seen[a] = seen[b] = true;
      }
      // Keyed by (seed, round) only: replaying the schedule is identical.
      EXPECT_EQ(pairs, PopulationSearch::pairing(17, round, p));
    }
    // Different seeds must decouple the schedules (with 8 workers the odds
    // of all four rounds colliding by chance are negligible).
    if (p == 8) {
      bool any_differ = false;
      for (std::size_t round = 0; round < 4; ++round) {
        if (PopulationSearch::pairing(17, round, p) !=
            PopulationSearch::pairing(18, round, p)) {
          any_differ = true;
        }
      }
      EXPECT_TRUE(any_differ);
    }
  }
}

TEST(Ltfb, PerturbationStaysInsideSearchSpace) {
  nn::TopologySpace space;
  const std::size_t k_min = 2, k_max = 16;
  Elite winner;
  winner.latent_k = 8;
  winner.spec.num_layers = 2;
  winner.spec.hidden_units = 64;
  winner.spec.channels = 4;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (std::size_t round = 0; round < 4; ++round) {
      const Elite out = PopulationSearch::perturb_elite(winner, seed, round,
                                                        /*loser=*/seed % 5, space,
                                                        k_min, k_max, 0.25);
      EXPECT_GE(out.latent_k, k_min);
      EXPECT_LE(out.latent_k, k_max);
      EXPECT_GE(out.spec.hidden_units, space.min_units);
      EXPECT_LE(out.spec.hidden_units, space.max_units);
      EXPECT_GE(out.spec.num_layers, space.min_layers);
      EXPECT_LE(out.spec.num_layers, space.max_layers);
      EXPECT_GE(out.spec.channels, space.min_channels);
      EXPECT_LE(out.spec.channels, space.max_channels);
      // Keyed schedule: same (seed, round, loser) -> same perturbation.
      const Elite again = PopulationSearch::perturb_elite(winner, seed, round,
                                                          seed % 5, space, k_min,
                                                          k_max, 0.25);
      EXPECT_EQ(out.latent_k, again.latent_k);
      EXPECT_EQ(out.spec.hidden_units, again.spec.hidden_units);
      EXPECT_EQ(out.spec.num_layers, again.spec.num_layers);
    }
  }
  // A full-input elite (K = 0) stays full-input: the adoption never invents
  // a reduction the winner did not have.
  winner.latent_k = 0;
  const Elite out = PopulationSearch::perturb_elite(winner, 3, 1, 2, space, k_min,
                                                    k_max, 0.25);
  EXPECT_EQ(out.latent_k, 0u);
}

TEST(Ltfb, SingleWorkerDegradesToSerialSearchWithoutTournaments) {
  const SearchTask task = make_synthetic_task(16);
  const PopulationResult res =
      PopulationSearch(small_population(/*population=*/1, /*rounds=*/2)).search(task);
  EXPECT_EQ(res.workers.size(), 1u);
  EXPECT_TRUE(res.tournaments.empty());
  EXPECT_EQ(res.best_worker, 0u);
  EXPECT_GT(res.evaluations(), 2u);
}

/// The determinism contract of the hpp header: a fixed task seed yields a
/// bitwise-identical search at any team budget, the worker rounds running
/// as one team or one after another.
TEST(Ltfb, SearchIsBitwiseIdenticalAcrossTeamBudgets) {
  SearchTask task = make_synthetic_task(16);
  const TeamProbe probe(task);
  const PopulationOptions opts = small_population(/*population=*/4, /*rounds=*/2);
  const auto [serial, teams] =
      serial_and_team_runs([&] { return PopulationSearch(opts).search(task); });
  // P=4, rounds=2 -> exactly one tournament barrier, two adoption records.
  EXPECT_EQ(serial.tournaments.size(), 2u);
  for (const TournamentRecord& t : serial.tournaments) {
    EXPECT_NE(t.winner, t.loser);
    EXPECT_EQ(t.round, 0u);
  }
  for (const PopulationResult& res : teams) expect_same_population_result(serial, res);
  expect_forked(probe);
}

// A population of one runs inline at the caller's budget, so its own
// candidate batches (eval_batch = 2) fork the team.
TEST(Ltfb, SingleWorkerMatchesAcrossTeamBudgets) {
  SearchTask task = make_synthetic_task(16);
  const TeamProbe probe(task);
  PopulationOptions opts = small_population(/*population=*/1, /*rounds=*/2);
  opts.nas.eval_batch = 2;
  const auto [serial, teams] =
      serial_and_team_runs([&] { return PopulationSearch(opts).search(task); });
  for (const PopulationResult& res : teams) expect_same_population_result(serial, res);
  expect_forked(probe);
}

// Worker rounds run on OpenMP workers, whose own span context is empty:
// every nas.* span must still open inside the population search's trace,
// and each worker's top spans directly under the search span.
TEST(Ltfb, TracedSearchAtFullTeamKeepsEveryNasSpanInThePopulationTrace) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.reset();
  {
    const team_test::ScopedTeamBudget budget(4);
    (void)PopulationSearch(small_population(/*population=*/4, /*rounds=*/2))
        .search(make_synthetic_task(16));
  }
  const obs::TracerSnapshot snap = tracer.snapshot();
  std::vector<obs::SpanRecord> search;
  for (const obs::SpanRecord& r : snap.recent) {
    if (r.name == "nas.population_search") search.push_back(r);
  }
  ASSERT_EQ(search.size(), 1u);
  std::map<std::string, std::size_t> nas_spans;
  for (const obs::SpanRecord& r : snap.recent) {
    if (r.name.rfind("nas.", 0) != 0) continue;
    ++nas_spans[r.name];
    EXPECT_EQ(r.trace_id, search[0].trace_id) << r.name;
    if (r.name != "nas.population_search") {
      EXPECT_EQ(r.parent_span_id, search[0].span_id) << r.name;
    }
  }
  // Round 0 opens a reference inner search per worker; every round opens
  // one more inner search per worker.
  EXPECT_EQ(nas_spans["nas.inner_search"], 4u * 3u);
}

TEST(Ltfb, PopulationTrainFnProducesRolloutCandidate) {
  // The Retrainer seam: a labeled reservoir dataset in, a candidate (with
  // replacement encoder wiring when the search reduced features) out.
  const SearchTask probe = make_synthetic_task(16, /*samples=*/96);
  nn::Dataset data = probe.data;

  PopulationOptions opts = small_population(/*population=*/2, /*rounds=*/1);
  nn::TrainOptions train;
  train.epochs = 40;
  train.lr = 5e-3;
  const runtime::RetrainCandidateFn fn =
      make_population_train_fn(opts, train, /*quality_bound=*/0.5);

  runtime::ServableModel active;
  Rng rng(3);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  active.surrogate.net = nn::build_surrogate(spec, data.x.cols(), data.y.cols(), rng);

  const runtime::RetrainCandidate cand = fn(active, data);
  EXPECT_GT(cand.surrogate.net.layer_count(), 0u);
  if (cand.replace_encoder && cand.encode) {
    // The encode hook must feed the surrogate's expected input width.
    const Tensor reduced = cand.encode(data.x);
    EXPECT_EQ(reduced.rows(), data.x.rows());
    EXPECT_GT(cand.encode_ops.flops, 0u);
    const Tensor y = cand.surrogate.predict(reduced);
    EXPECT_EQ(y.rows(), data.x.rows());
  }
}

}  // namespace
}  // namespace ahn::nas

namespace ahn::baselines {
namespace {

TEST(Perforation, PicksFullKeepWhenQualityFragile) {
  // FFT collapses under stage perforation, so calibration must keep 1.0,
  // which runs the exact region: checked on the region's analytic op
  // counts, not on wall-clock time.
  auto app = apps::make_application("FFT");
  app->generate_problems(10, 3);
  const std::vector<std::size_t> cal{0, 1, 2, 3};
  const std::vector<std::size_t> eval{4, 5, 6, 7};
  const PerforationResult res = tune_and_evaluate(*app, cal, eval);
  EXPECT_EQ(res.keep_fraction, 1.0);
  for (const std::size_t p : eval) {
    const OpCounts exact = app->run_region(p).region_ops;
    const OpCounts perforated = app->run_region_perforated(p, res.keep_fraction).region_ops;
    EXPECT_GT(exact.flops, 0u);
    EXPECT_EQ(perforated.flops, exact.flops) << "problem " << p;
    EXPECT_EQ(perforated.bytes_read, exact.bytes_read) << "problem " << p;
    EXPECT_EQ(perforated.bytes_written, exact.bytes_written) << "problem " << p;
  }
}

TEST(Perforation, ExploitsTolerantKernels) {
  // x264 forwards source pixels for skipped tiles: quality stays high and a
  // sub-1.0 keep should be selected with real savings. The savings are
  // checked on the region's analytic op counts, not on wall-clock time.
  auto app = apps::make_application("X264");
  app->generate_problems(10, 5);
  const std::vector<std::size_t> cal{0, 1, 2, 3};
  const std::vector<std::size_t> eval{4, 5, 6, 7};
  const PerforationResult res = tune_and_evaluate(*app, cal, eval);
  EXPECT_LT(res.keep_fraction, 1.0);
  EXPECT_GE(res.hit_rate, 0.75);
  std::uint64_t exact_flops = 0, perforated_flops = 0;
  for (const std::size_t p : eval) {
    exact_flops += app->run_region(p).region_ops.flops;
    perforated_flops += app->run_region_perforated(p, res.keep_fraction).region_ops.flops;
  }
  ASSERT_GT(perforated_flops, 0u);
  EXPECT_GT(static_cast<double>(exact_flops) / static_cast<double>(perforated_flops), 1.2);
}

TEST(Accept, CoversOnlyTypeTwoApps) {
  EXPECT_TRUE(accept_topology("Blackscholes").has_value());
  EXPECT_TRUE(accept_topology("X264").has_value());
  EXPECT_FALSE(accept_topology("CG").has_value());
  EXPECT_FALSE(accept_topology("AMG").has_value());
  EXPECT_FALSE(accept_topology("miniQMC").has_value());
}

TEST(Accept, TrainsFixedTopology) {
  const nas::SearchTask task = [] {
    // Tiny synthetic task reusing the nas test helper shape.
    Rng rng(2);
    nas::SearchTask t;
    t.data.x = Tensor::randn({80, 10}, rng);
    t.data.y = ops::matmul(t.data.x, Tensor::randn({10, 2}, rng));
    t.evaluate_quality = [](const nas::PipelineModel&) { return std::vector<double>{0.05}; };
    t.train.epochs = 20;
    return t;
  }();
  const nas::PipelineModel pm = train_accept_model(task, "Canneal");
  EXPECT_EQ(pm.spec.num_layers, 1u);
  EXPECT_EQ(pm.spec.act, nn::Activation::Sigmoid);
  EXPECT_EQ(pm.encoder, nullptr);
  EXPECT_THROW((void)train_accept_model(task, "CG"), Error);
}

}  // namespace
}  // namespace ahn::baselines
