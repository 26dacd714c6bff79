#include "nas/baseline_searchers.hpp"

#include <cmath>
#include <utility>

#include "common/parallel.hpp"
#include "common/timer.hpp"

namespace ahn::nas {

namespace {

/// Shared evaluation for the loss-driven searchers (Autokeras/grid): train
/// on full-width data, observe validation loss; fill in the quality/cost
/// fields afterwards so results are comparable with Auto-HPCnet's.
PipelineModel loss_driven_candidate(const SearchTask& task, const nn::TopologySpec& spec,
                                    Rng rng) {
  PipelineModel pm = evaluate_candidate(task, spec, nullptr, task.data, std::move(rng));
  return pm;
}

struct TimedEval {
  PipelineModel pm;
  double seconds = 0.0;
};

/// Trains the drafted specs as whole tasks on the caller's team (each at a
/// team of one) and returns results in draft order. Each spec comes paired
/// with its pre-forked Rng, so scheduling cannot change any outcome.
std::vector<TimedEval> evaluate_drafts(
    const SearchTask& task, const std::vector<std::pair<nn::TopologySpec, Rng>>& drafts) {
  std::vector<TimedEval> out(drafts.size());
  parallel_tasks(drafts.size(), [&](std::size_t i) {
    const Timer t;
    out[i].pm = loss_driven_candidate(task, drafts[i].first, drafts[i].second);
    out[i].seconds = t.seconds();
  });
  return out;
}

SearchStep step_from(const PipelineModel& pm, double elapsed, std::size_t outer = 0) {
  SearchStep s;
  s.outer_iteration = outer;
  s.latent_k = pm.latent_k;
  s.spec = pm.spec;
  s.quality_error = pm.quality_error;
  s.modeled_infer_seconds = pm.modeled_infer_seconds;
  s.hit_share = pm.hit_share;
  s.elapsed_seconds = elapsed;
  return s;
}

}  // namespace

NasResult AutokerasLike::search(const SearchTask& task) const {
  AHN_CHECK(task.data.size() >= 4);
  const Timer total;
  Rng rng(task.seed ^ 0xa07f0ce2ULL);

  gp::BoOptions bo_opts;
  bo_opts.dim = nn::TopologySpace::encoded_dim();
  // Autokeras has no quality constraint: make everything "feasible" by
  // setting the threshold far above any observed validation loss.
  bo_opts.constraint_threshold = 1e30;
  bo_opts.init_samples = options_.bayesian_init;
  gp::BayesianOptimizer bo(bo_opts, rng.fork());

  NasResult result;
  double best_loss = std::numeric_limits<double>::infinity();

  const std::size_t batch = std::max<std::size_t>(1, options_.eval_batch);
  for (std::size_t it = 0; it < options_.iterations;) {
    const std::size_t q = std::min(batch, options_.iterations - it);
    const std::vector<std::vector<double>> xs = bo.propose_batch(q);
    std::vector<std::pair<nn::TopologySpec, Rng>> drafts;
    drafts.reserve(xs.size());
    for (const std::vector<double>& x : xs) {
      drafts.emplace_back(task.space.decode(x), rng.fork());
    }
    std::vector<TimedEval> evals = evaluate_drafts(task, drafts);
    for (std::size_t i = 0; i < evals.size(); ++i) {
      PipelineModel& pm = evals[i].pm;
      // Objective is the model's own validation loss — NOT application
      // quality and NOT inference time (the baseline's defining blind spots).
      const double val_loss = pm.surrogate.result.val_loss;
      bo.observe({xs[i], val_loss, 0.0});
      result.steps.push_back(step_from(pm, evals[i].seconds));
      if (val_loss < best_loss) {
        best_loss = val_loss;
        result.best = std::move(pm);
      }
    }
    it += q;
  }
  result.found_feasible = result.best.quality_error <= task.quality_bound;
  result.search_seconds = total.seconds();
  return result;
}

NasResult GridSearch::search(const SearchTask& task) const {
  AHN_CHECK(task.data.size() >= 4);
  const Timer total;
  Rng rng(task.seed ^ 0x6e1dULL);

  NasResult result;
  double best_loss = std::numeric_limits<double>::infinity();
  std::vector<std::pair<nn::TopologySpec, Rng>> drafts;
  drafts.reserve(options_.layer_grid.size() * options_.unit_grid.size());
  for (std::size_t layers : options_.layer_grid) {
    for (std::size_t units : options_.unit_grid) {
      nn::TopologySpec spec;
      spec.kind = nn::ModelKind::Mlp;
      spec.num_layers = layers;
      spec.hidden_units = units;
      drafts.emplace_back(spec, rng.fork());
    }
  }
  std::vector<TimedEval> evals = evaluate_drafts(task, drafts);
  for (TimedEval& e : evals) {
    const double val_loss = e.pm.surrogate.result.val_loss;
    result.steps.push_back(step_from(e.pm, e.seconds));
    if (val_loss < best_loss) {
      best_loss = val_loss;
      result.best = std::move(e.pm);
    }
  }
  result.found_feasible = result.best.quality_error <= task.quality_bound;
  result.search_seconds = total.seconds();
  return result;
}

NasResult FlatJointNas::search(const SearchTask& task) const {
  AHN_CHECK(task.data.size() >= 4);
  const Timer total;
  Rng rng(task.seed ^ 0xf1a7ULL);

  const std::size_t in_width = task.data.in_features();
  const std::size_t k_max = std::min(options_.k_max, in_width);
  const std::size_t k_min = std::min(options_.k_min, k_max);
  const std::size_t dim = 1 + nn::TopologySpace::encoded_dim();

  gp::BoOptions bo_opts;
  bo_opts.dim = dim;
  bo_opts.constraint_threshold = task.quality_bound;
  bo_opts.init_samples = options_.bayesian_init;
  gp::BayesianOptimizer bo(bo_opts, rng.fork());

  NasResult result;
  for (std::size_t it = 0; it < options_.iterations; ++it) {
    const std::vector<double> x = bo.propose();
    // Joint vector: x[0] is K (log-scaled), the rest is theta — the very
    // concatenation §5.2 argues against; distances mix feature-count and
    // topology semantics.
    const double lo = std::log2(static_cast<double>(k_min));
    const double hi = std::log2(static_cast<double>(k_max));
    const auto k = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::round(std::exp2(lo + x[0] * (hi - lo)))), k_min,
        k_max);
    const nn::TopologySpec spec =
        task.space.decode(std::span<const double>(x).subspan(1));

    const Timer step_timer;
    autoencoder::AutoencoderConfig acfg;
    acfg.latent_dim = k;
    acfg.epochs = options_.ae_epochs;
    acfg.encoding_loss_bound = task.encoding_loss_bound;
    acfg.seed = rng.next_u64();
    auto ae = std::make_shared<autoencoder::Autoencoder>(in_width, acfg);
    const autoencoder::AutoencoderReport ae_rep =
        task.sparse_x != nullptr ? ae->train_sparse(*task.sparse_x)
                                 : ae->train(task.data.x);
    result.autoencoder_train_seconds += step_timer.seconds();

    nn::Dataset reduced;
    reduced.x = task.sparse_x != nullptr ? ae->encode_sparse(*task.sparse_x)
                                         : ae->encode(task.data.x);
    reduced.y = task.data.y;

    PipelineModel pm = evaluate_candidate(task, spec, ae, reduced, rng.fork());
    double constraint = pm.quality_error;
    if (!ae_rep.meets_bound) {
      constraint = std::max(constraint, task.quality_bound * 2.0 + ae_rep.miss_fraction);
    }
    bo.observe({x, task.expected_online_seconds(pm), constraint});

    SearchStep step = step_from(pm, step_timer.seconds());
    step.encoding_miss = ae_rep.miss_fraction;
    result.steps.push_back(step);

    if (result.best.surrogate.net.layer_count() == 0 ||
        better_pipeline(pm, result.best, task)) {
      result.best = std::move(pm);
    }
  }
  result.found_feasible = result.best.quality_error <= task.quality_bound;
  result.search_seconds = total.seconds();
  return result;
}

}  // namespace ahn::nas
