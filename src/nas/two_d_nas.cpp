#include "nas/two_d_nas.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <istream>
#include <ostream>
#include <utility>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace ahn::nas {

const char* search_type_name(SearchType t) noexcept {
  switch (t) {
    case SearchType::Autokeras: return "autokeras";
    case SearchType::UserModel: return "userModel";
    case SearchType::FullInput: return "fullInput";
  }
  return "?";
}

namespace {

/// The Autokeras-default starting topology (Table 1 searchType (1)).
nn::TopologySpec autokeras_default_spec() {
  nn::TopologySpec s;
  s.kind = nn::ModelKind::Mlp;
  s.num_layers = 2;
  s.hidden_units = 32;
  s.act = nn::Activation::Relu;
  return s;
}

/// Memo-cache key for one topology under a given evaluation context.
std::string spec_key(std::string prefix, const nn::TopologySpec& s) {
  prefix += std::to_string(static_cast<int>(s.kind));
  prefix += '|';
  prefix += std::to_string(s.num_layers);
  prefix += '|';
  prefix += std::to_string(s.hidden_units);
  prefix += '|';
  prefix += std::to_string(s.channels);
  prefix += '|';
  prefix += std::to_string(s.kernel);
  prefix += '|';
  prefix += std::to_string(s.pool);
  prefix += '|';
  prefix += s.residual ? '1' : '0';
  prefix += '|';
  prefix += std::to_string(static_cast<int>(s.act));
  return prefix;
}

/// Draws an inner search of `iterations` candidates (after the 0 =
/// options.inner_iterations substitution) takes from its Rng: one fork for
/// its BO plus one per drafted candidate, memo hits included. The seed
/// candidate is drafted even at 0 iterations.
std::size_t inner_search_draws(std::size_t iterations) noexcept {
  return 1 + std::max<std::size_t>(1, iterations);
}

}  // namespace

double encode_latent_k(std::size_t k, std::size_t k_min, std::size_t k_max) {
  if (k_max <= k_min) return 0.0;
  const double lo = std::log2(static_cast<double>(k_min));
  const double hi = std::log2(static_cast<double>(k_max));
  return std::clamp((std::log2(static_cast<double>(k)) - lo) / (hi - lo), 0.0, 1.0);
}

std::size_t decode_latent_k(double x, std::size_t k_min, std::size_t k_max) {
  const double lo = std::log2(static_cast<double>(k_min));
  const double hi = std::log2(static_cast<double>(k_max));
  const double v = std::exp2(lo + std::clamp(x, 0.0, 1.0) * (hi - lo));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::round(v)), k_min, k_max);
}

InnerOutcome inner_topology_search(
    const NasOptions& options, const SearchTask& task, const nn::Dataset& reduced,
    std::shared_ptr<const autoencoder::Autoencoder> encoder, double encoding_miss,
    std::size_t outer_iter, Rng& rng, EvalMemo& memo, std::size_t iterations,
    obs::SpanContext parent) {
  if (iterations == 0) iterations = options.inner_iterations;
  const obs::Span search_span(obs::Tracer::global(), "nas.inner_search", parent);
  gp::BoOptions bo_opts;
  bo_opts.dim = nn::TopologySpace::encoded_dim();
  bo_opts.constraint_threshold = task.quality_bound;
  bo_opts.init_samples = options.bayesian_init;
  gp::BayesianOptimizer bo(bo_opts, rng.fork());

  // Memo keys: unreduced evaluations are valid search-wide ("full"); an
  // encoder-backed evaluation is only reusable within its outer iteration,
  // whose fresh autoencoder it was trained on.
  const std::string key_prefix =
      encoder == nullptr ? "full|" : "enc" + std::to_string(outer_iter) + "|";

  InnerOutcome outcome;

  /// One drafted candidate of a round. Drafting runs on the coordinator in
  /// proposal order — the Rng fork, memo lookup and within-round dedup all
  /// happen there, so the round's outcome is independent of how (or whether)
  /// the evaluations are parallelized.
  struct Draft {
    nn::TopologySpec spec;
    std::vector<double> x;
    std::string key;
    Rng child;
    const PipelineModel* cached = nullptr;      ///< memo hit
    std::size_t dup_of = SIZE_MAX;              ///< earlier same-key draft
  };

  auto draft = [&](nn::TopologySpec spec, std::vector<double> x) {
    Draft d{std::move(spec), std::move(x), {}, rng.fork()};
    d.key = spec_key(key_prefix, d.spec);
    return d;
  };

  auto record = [&](const PipelineModel& pm, const std::vector<double>& x,
                    const nn::TopologySpec& spec, double elapsed) {
    bo.observe({x, task.expected_online_seconds(pm), pm.quality_error});
    SearchStep step;
    step.outer_iteration = outer_iter;
    step.latent_k = pm.latent_k;
    step.spec = spec;
    step.quality_error = pm.quality_error;
    step.modeled_infer_seconds = pm.modeled_infer_seconds;
    step.hit_share = pm.hit_share;
    step.encoding_miss = encoding_miss;
    step.elapsed_seconds = elapsed;
    step.precision = pm.precision;
    outcome.steps.push_back(step);
    if (outcome.best.surrogate.net.layer_count() == 0 ||
        better_pipeline(pm, outcome.best, task)) {
      outcome.best = pm;
    }
  };

  /// Evaluates a drafted round: memo hits and duplicates resolve without
  /// training, misses train as whole tasks on the caller's team (each at a
  /// team of one), and observations are recorded strictly in proposal order
  /// afterwards.
  auto run_round = [&](std::vector<Draft>& round) {
    struct Fresh {
      PipelineModel pm;
      double seconds = 0.0;
    };
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < round.size(); ++i) {
      Draft& d = round[i];
      if (auto it = memo.find(d.key); it != memo.end()) {
        d.cached = &it->second;
        continue;
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (round[j].cached == nullptr && round[j].dup_of == SIZE_MAX &&
            round[j].key == d.key) {
          d.dup_of = j;
          break;
        }
      }
      if (d.dup_of == SIZE_MAX) misses.push_back(i);
    }
    std::vector<Fresh> fresh(round.size());
    parallel_tasks(misses.size(), [&](std::size_t m) {
      const Draft& d = round[misses[m]];
      const Timer step_timer;
      fresh[misses[m]].pm = evaluate_candidate(task, d.spec, encoder, reduced, d.child);
      fresh[misses[m]].seconds = step_timer.seconds();
    });
    for (std::size_t i = 0; i < round.size(); ++i) {
      Draft& d = round[i];
      if (d.cached != nullptr) {
        record(*d.cached, d.x, d.spec, 0.0);
      } else if (d.dup_of != SIZE_MAX) {
        record(memo.at(d.key), d.x, d.spec, 0.0);
      } else {
        const auto it = memo.emplace(d.key, std::move(fresh[i].pm)).first;
        record(it->second, d.x, d.spec, fresh[i].seconds);
      }
    }
  };

  const std::size_t batch = std::max<std::size_t>(1, options.eval_batch);

  // Seed evaluations (the BO's initial design): the configured starting
  // topology (§6.1 searchType), plus a wide linear probe — HPC code regions
  // are frequently near-linear operators (solvers, transforms), and giving
  // the GP that anchor point early steers the search decisively.
  const nn::TopologySpec seed_spec = options.search_type == SearchType::UserModel
                                         ? options.user_model
                                         : autokeras_default_spec();
  std::vector<Draft> seeds;
  seeds.push_back(draft(seed_spec, task.space.encode(seed_spec)));
  if (iterations > 1) {
    nn::TopologySpec probe;
    probe.kind = nn::ModelKind::Mlp;
    probe.num_layers = 1;
    probe.hidden_units = std::min<std::size_t>(256, reduced.out_features() + 32);
    probe.act = nn::Activation::Identity;
    seeds.push_back(draft(probe, task.space.encode(probe)));
  }
  std::size_t it = 0;
  for (std::size_t s = 0; s < seeds.size(); s += batch) {
    std::vector<Draft> round;
    for (std::size_t i = s; i < std::min(seeds.size(), s + batch); ++i) {
      round.push_back(std::move(seeds[i]));
    }
    it += round.size();
    run_round(round);
  }

  while (it < iterations) {
    const std::size_t q = std::min(batch, iterations - it);
    const std::vector<std::vector<double>> xs = bo.propose_batch(q);
    std::vector<Draft> round;
    round.reserve(xs.size());
    for (const std::vector<double>& x : xs) round.push_back(draft(task.space.decode(x), x));
    it += round.size();
    run_round(round);
  }
  return outcome;
}

OuterIterate run_outer_iterate(const NasOptions& options, const SearchTask& task,
                               std::size_t k, std::size_t outer_iter, Rng& rng,
                               EvalMemo& memo, obs::SpanContext parent) {
  const std::size_t in_width = task.data.in_features();
  OuterIterate iterate;
  iterate.latent_k = k;

  // Train this iteration's autoencoder (§4.3: one fresh autoencoder per
  // outer-loop iteration, sparse path when available).
  const Timer ae_timer;
  autoencoder::AutoencoderConfig acfg;
  acfg.latent_dim = k;
  acfg.epochs = options.ae_epochs;
  acfg.encoding_loss_bound = task.encoding_loss_bound;
  acfg.seed = rng.next_u64();
  auto ae = std::make_shared<autoencoder::Autoencoder>(in_width, acfg);
  autoencoder::AutoencoderReport ae_rep;
  {
    const obs::Span ae_span(obs::Tracer::global(), "nas.autoencoder_train", parent);
    ae_rep = task.sparse_x != nullptr ? ae->train_sparse(*task.sparse_x)
                                      : ae->train(task.data.x);
  }
  iterate.autoencoder_seconds = ae_timer.seconds();
  iterate.encoding_miss = ae_rep.miss_fraction;
  iterate.ae_meets_bound = ae_rep.meets_bound;

  // Encoder-model inference: reduce the training features once.
  nn::Dataset reduced;
  reduced.x = task.sparse_x != nullptr ? ae->encode_sparse(*task.sparse_x)
                                       : ae->encode(task.data.x);
  reduced.y = task.data.y;

  iterate.inner = inner_topology_search(options, task, reduced, ae, ae_rep.miss_fraction,
                                        outer_iter, rng, memo, 0, parent);

  // The outer GP's f_e: the inner loop's best, inflated past the feasibility
  // threshold when the autoencoder violates its encoding bound (Eqn 1) so
  // the whole iterate reads infeasible.
  iterate.outer_constraint = iterate.inner.best.quality_error;
  if (!ae_rep.meets_bound) {
    iterate.outer_constraint = std::max(iterate.outer_constraint,
                                        task.quality_bound * 2.0 + ae_rep.miss_fraction);
  }
  return iterate;
}

NasResult TwoDNas::search(const SearchTask& task) const { return search_from(task, {}); }

NasResult TwoDNas::search_from(const SearchTask& task,
                               const std::vector<SearchStep>& prior) const {
  AHN_CHECK(task.evaluate_quality != nullptr);
  AHN_CHECK(task.data.size() >= 4);
  const Timer total;
  Rng rng(task.seed);
  NasResult result;
  result.steps = prior;

  const std::size_t in_width = task.data.in_features();

  // FullInput mode (Table 1 searchType (3)): no feature reduction at all —
  // a single inner search on the raw features.
  if (options_.search_type == SearchType::FullInput || in_width <= options_.k_min) {
    EvalMemo memo;
    InnerOutcome inner =
        inner_topology_search(options_, task, task.data, nullptr, 0.0, 0, rng, memo);
    result.steps.insert(result.steps.end(), inner.steps.begin(), inner.steps.end());
    result.best = std::move(inner.best);
    result.found_feasible = result.best.quality_error <= task.quality_bound;
    result.search_seconds = total.seconds();
    return result;
  }

  const std::size_t k_max = std::min(options_.k_max, in_width);
  const std::size_t k_min = std::min(options_.k_min, k_max);

  // One arm of the search: the reference arm (index 0) or one outer iterate.
  // `rng` starts as a copy of the search Rng where the serial search starts
  // the arm, and must end at `rng_end`, where the serial search starts what
  // comes next.
  struct Arm {
    Rng rng;
    Rng rng_end;
    std::vector<double> xk;
    std::size_t k = 0;
    OuterIterate iterate;  ///< the reference arm fills only `inner`
    std::exception_ptr error;
  };
  std::vector<Arm> arms;

  // Reference arm: one inner search with NO feature reduction, so the outer
  // loop only adopts an autoencoder when reduction actually wins on
  // (E, f_e) — mirroring the fullInput option of Table 1's searchType.
  // Wide full-width candidates are the expensive ones to train; a short
  // reference arm (2 evaluations) is enough to anchor the comparison.
  const std::size_t ref_iterations = std::min<std::size_t>(2, options_.inner_iterations);
  Arm& reference = arms.emplace_back();
  reference.rng = rng;
  rng.discard(inner_search_draws(ref_iterations));
  reference.rng_end = rng;

  gp::BoOptions outer_opts;
  outer_opts.dim = 1;
  outer_opts.constraint_threshold = task.quality_bound;
  outer_opts.init_samples = options_.bayesian_init;
  gp::BayesianOptimizer outer(outer_opts, rng.fork());

  // Warm start from prior checkpointed steps.
  for (const SearchStep& s : prior) {
    if (s.latent_k > 0) {
      outer.observe({{encode_latent_k(s.latent_k, k_min, k_max)},
                     task.expected_online_seconds(s.modeled_infer_seconds, s.hit_share),
                     s.quality_error});
    }
  }

  // The outer loop's initial design: while the outer GP holds fewer than
  // init_samples observations, propose() draws K from its own Rng whatever
  // was observed, so these iterates are fixed before any result arrives.
  const std::size_t observed = outer.history().size();
  const std::size_t n_init =
      observed < outer_opts.init_samples
          ? std::min(options_.outer_iterations, outer_opts.init_samples - observed)
          : 0;
  for (std::size_t outer_iter = 0; outer_iter < n_init; ++outer_iter) {
    Arm& arm = arms.emplace_back();
    arm.rng = rng;
    arm.xk = outer.propose();
    arm.k = decode_latent_k(arm.xk[0], k_min, k_max);
    AHN_INFO_C("nas", "2D-NAS outer " << outer_iter << ": K = " << arm.k);
    rng.discard(1 + inner_search_draws(options_.inner_iterations));
    arm.rng_end = rng;
  }

  // Each arm runs on its own Rng copy and memo (the keys "full|" and
  // "enc<i>|" never cross arms) and writes only its own Arm, so it is the
  // same bits on any thread; inside the team its kernels run inline. Arms
  // may run on OpenMP workers, whose span context is empty, so their spans
  // open under the search's context explicitly. An exception must not leave
  // the region: each arm keeps its own.
  const obs::SpanContext search_ctx = obs::Tracer::current();
  auto run_arm = [&](std::size_t a) {
    Arm& arm = arms[a];
    try {
      EvalMemo memo;
      if (a == 0) {
        arm.iterate.inner = inner_topology_search(options_, task, task.data, nullptr, 0.0,
                                                  0, arm.rng, memo, ref_iterations,
                                                  search_ctx);
      } else {
        const obs::Span outer_span(obs::Tracer::global(), "nas.outer_iteration",
                                   search_ctx);
        arm.iterate = run_outer_iterate(options_, task, arm.k, a - 1, arm.rng, memo);
      }
    } catch (...) {
      arm.error = std::current_exception();
    }
  };

  double best_objective = std::numeric_limits<double>::infinity();
  std::size_t stale = 0;

  // Records one finished outer iterate as Algorithm 2 does; false once the
  // search stagnates (§5.2).
  auto record_outer = [&](const std::vector<double>& xk, OuterIterate& iterate) {
    result.autoencoder_train_seconds += iterate.autoencoder_seconds;
    InnerOutcome& inner = iterate.inner;
    result.steps.insert(result.steps.end(), inner.steps.begin(), inner.steps.end());

    outer.observe({xk, task.expected_online_seconds(inner.best), iterate.outer_constraint});

    if (result.best.surrogate.net.layer_count() == 0 ||
        better_pipeline(inner.best, result.best, task)) {
      result.best = std::move(inner.best);
    }

    const bool feasible = result.best.quality_error <= task.quality_bound;
    const double objective = task.expected_online_seconds(result.best);
    if (feasible && objective < best_objective * 0.99) {
      best_objective = objective;
      stale = 0;
    } else if (feasible && ++stale >= options_.patience) {
      return false;
    }
    return true;
  };

  // Every arm is a whole inner search, far above the grain. At a team of
  // one each arm runs just before it is recorded, exactly the serial search.
  const std::size_t work = arms.size() * kParallelGrain;
  const bool concurrent = parallel_team_size(work, arms.size()) > 1;
  if (concurrent) parallel_for(work, arms.size(), run_arm);
  bool stagnated = false;
  for (std::size_t a = 0; a < arms.size() && !stagnated; ++a) {
    if (!concurrent) run_arm(a);
    Arm& arm = arms[a];
    if (arm.error) std::rethrow_exception(arm.error);
    AHN_CHECK_MSG(arm.rng == arm.rng_end,
                  "2D-NAS arm " << a << " drew a different count from the search Rng");
    if (a == 0) {
      InnerOutcome& full = arm.iterate.inner;
      result.steps.insert(result.steps.end(), full.steps.begin(), full.steps.end());
      result.best = std::move(full.best);
    } else {
      stagnated = !record_outer(arm.xk, arm.iterate);
    }
  }
  arms.clear();

  // Past the initial design each proposal depends on what was observed.
  for (std::size_t outer_iter = n_init;
       !stagnated && outer_iter < options_.outer_iterations; ++outer_iter) {
    const obs::Span outer_span(obs::Tracer::global(), "nas.outer_iteration");
    const std::vector<double> xk = outer.propose();
    const std::size_t k = decode_latent_k(xk[0], k_min, k_max);
    AHN_INFO_C("nas", "2D-NAS outer " << outer_iter << ": K = " << k);

    EvalMemo memo;
    OuterIterate iterate = run_outer_iterate(options_, task, k, outer_iter, rng, memo);
    stagnated = !record_outer(xk, iterate);
  }

  result.found_feasible = result.best.quality_error <= task.quality_bound;
  result.search_seconds = total.seconds();
  return result;
}

void TwoDNas::save_checkpoint(std::ostream& os, const NasResult& partial) {
  os << partial.steps.size() << "\n";
  os.precision(17);
  for (const SearchStep& s : partial.steps) {
    os << s.outer_iteration << " " << s.latent_k << " "
       << static_cast<int>(s.spec.kind) << " " << s.spec.num_layers << " "
       << s.spec.hidden_units << " " << s.spec.channels << " " << s.spec.kernel << " "
       << s.spec.pool << " " << (s.spec.residual ? 1 : 0) << " "
       << static_cast<int>(s.spec.act) << " " << s.quality_error << " "
       << s.modeled_infer_seconds << " " << s.encoding_miss << " "
       << s.elapsed_seconds << " " << s.hit_share << "\n";
  }
}

std::vector<SearchStep> TwoDNas::load_checkpoint(std::istream& is) {
  std::size_t n = 0;
  is >> n;
  std::vector<SearchStep> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SearchStep s;
    int kind = 0, residual = 0, act = 0;
    is >> s.outer_iteration >> s.latent_k >> kind >> s.spec.num_layers >>
        s.spec.hidden_units >> s.spec.channels >> s.spec.kernel >> s.spec.pool >>
        residual >> act >> s.quality_error >> s.modeled_infer_seconds >>
        s.encoding_miss >> s.elapsed_seconds >> s.hit_share;
    AHN_CHECK_MSG(static_cast<bool>(is), "truncated NAS checkpoint");
    s.spec.kind = static_cast<nn::ModelKind>(kind);
    s.spec.residual = residual != 0;
    s.spec.act = static_cast<nn::Activation>(act);
    steps.push_back(s);
  }
  return steps;
}

}  // namespace ahn::nas
