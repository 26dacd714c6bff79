#include "nas/ltfb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "runtime/orchestrator.hpp"

namespace ahn::nas {

namespace {

/// SplitMix64-style mix of (seed, a, b) into an independent stream key. All
/// population schedules (worker streams, pairing, perturbation) derive from
/// this, which is what makes the search a pure function of the task seed.
std::uint64_t schedule_key(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) + 0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kWorkerSalt = 0x10f7b;   ///< worker Rng streams
constexpr std::uint64_t kPairSalt = 0x7a1f;      ///< tournament pairing
constexpr std::uint64_t kPerturbSalt = 0xe117e;  ///< elite perturbation

/// One worker's private search state. Nothing here is ever read or written
/// by another worker; tournaments only copy Elites out of `best` and leave a
/// pending adoption in `adopted`.
struct WorkerState {
  std::size_t id = 0;
  Rng rng{0};
  EvalMemo memo;
  PipelineModel best;
  std::vector<SearchStep> steps;
  std::unique_ptr<gp::BayesianOptimizer> outer;  ///< null in full-input mode
  std::optional<Elite> adopted;  ///< pending tournament adoption
  nn::TopologySpec seed_spec;    ///< inner-search starting topology
  bool has_seed_spec = false;

  [[nodiscard]] bool has_best() const noexcept {
    return best.surrogate.net.layer_count() > 0;
  }
};

Elite elite_of(const WorkerState& w) {
  Elite e;
  e.latent_k = w.best.latent_k;
  e.spec = w.best.spec;
  e.quality_error = w.best.quality_error;
  e.modeled_infer_seconds = w.best.modeled_infer_seconds;
  e.from_worker = w.id;
  return e;
}

void absorb(WorkerState& w, InnerOutcome&& inner, const SearchTask& task) {
  w.steps.insert(w.steps.end(), inner.steps.begin(), inner.steps.end());
  if (!w.has_best() || better_pipeline(inner.best, w.best, task)) {
    w.best = std::move(inner.best);
  }
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> PopulationSearch::pairing(
    std::uint64_t seed, std::size_t round, std::size_t population) {
  std::vector<std::size_t> perm(population);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(schedule_key(seed, kPairSalt, round));
  rng.shuffle(perm);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(population / 2);
  for (std::size_t i = 0; i + 1 < population; i += 2) {
    pairs.emplace_back(perm[i], perm[i + 1]);
  }
  return pairs;
}

Elite PopulationSearch::perturb_elite(const Elite& winner, std::uint64_t seed,
                                      std::size_t round, std::size_t loser,
                                      const nn::TopologySpace& space, std::size_t k_min,
                                      std::size_t k_max, double k_jitter) {
  Elite out = winner;
  Rng rng(schedule_key(seed ^ kPerturbSalt, round, loser));
  if (out.latent_k > 0 && k_max > 0) {
    // Jitter in the log-encoded [0,1] coordinate the outer GP searches;
    // decode clamps, so the adopted K can never leave [k_min, k_max].
    const double x = encode_latent_k(out.latent_k, k_min, k_max) +
                     rng.uniform(-k_jitter, k_jitter);
    out.latent_k = decode_latent_k(x, k_min, k_max);
  }
  // Theta: multiplicative width jitter + a 1/3-1/3-1/3 depth step, clamped
  // into the topology box — the perturb_weights analogue at architecture
  // granularity.
  const double width_factor = rng.uniform(0.75, 1.25);
  const auto units = static_cast<std::size_t>(
      std::lround(static_cast<double>(out.spec.hidden_units) * width_factor));
  out.spec.hidden_units = std::clamp(units, space.min_units, space.max_units);
  const double depth_draw = rng.uniform();
  if (depth_draw < 1.0 / 3.0 && out.spec.num_layers > space.min_layers) {
    --out.spec.num_layers;
  } else if (depth_draw > 2.0 / 3.0 && out.spec.num_layers < space.max_layers) {
    ++out.spec.num_layers;
  }
  out.spec.channels = std::clamp(out.spec.channels, space.min_channels,
                                 space.max_channels);
  return out;
}

PopulationResult PopulationSearch::search(const SearchTask& task) const {
  AHN_CHECK(task.evaluate_quality != nullptr);
  AHN_CHECK(task.data.size() >= 4);
  const Timer total;
  const obs::Span search_span(obs::Tracer::global(), "nas.population_search");

  const std::size_t population = std::max<std::size_t>(1, options_.population);
  const std::size_t rounds = std::max<std::size_t>(1, options_.rounds);
  const std::size_t interval = std::max<std::size_t>(1, options_.tournament_interval);

  const NasOptions& worker_nas = options_.nas;
  // Worker rounds may run on OpenMP workers, whose span context is empty, so
  // their spans open under the search's context explicitly.
  const obs::SpanContext search_ctx = search_span.context();

  const std::size_t in_width = task.data.in_features();
  const bool reduce = worker_nas.search_type != SearchType::FullInput &&
                      in_width > worker_nas.k_min;
  const std::size_t k_max = std::min(worker_nas.k_max, in_width);
  const std::size_t k_min = std::min(worker_nas.k_min, k_max);

  std::vector<WorkerState> workers(population);
  for (std::size_t w = 0; w < population; ++w) {
    workers[w].id = w;
    workers[w].rng.reseed(schedule_key(task.seed, kWorkerSalt, w));
    if (worker_nas.search_type == SearchType::UserModel) {
      workers[w].seed_spec = worker_nas.user_model;
      workers[w].has_seed_spec = true;
    }
  }

  PopulationResult result;

  /// One worker's round body. Touches only its own WorkerState; determinism
  /// follows because every draw comes from the worker's own stream and the
  /// adoption (if any) was fixed at the previous barrier.
  auto run_round = [&](WorkerState& w, std::size_t round) {
    NasOptions nas = worker_nas;
    if (w.adopted.has_value()) {
      // Tournament adoption: restart the inner search from the winner's
      // perturbed theta. The worker's own GP history and memo persist.
      nas.search_type = SearchType::UserModel;
      nas.user_model = w.adopted->spec;
    } else if (w.has_seed_spec) {
      nas.search_type = SearchType::UserModel;
      nas.user_model = w.seed_spec;
    }

    if (!reduce || (w.adopted.has_value() && w.adopted->latent_k == 0)) {
      // Full-input round: one inner search on the raw features. Memo keys
      // ("full|...") persist across rounds, so revisited specs are free.
      InnerOutcome inner = inner_topology_search(nas, task, task.data, nullptr, 0.0,
                                                 round, w.rng, w.memo, 0, search_ctx);
      w.adopted.reset();
      absorb(w, std::move(inner), task);
      return;
    }

    if (round == 0) {
      // Per-worker reference arm, as in TwoDNas::search_from: a short
      // full-width probe so a worker only adopts reduction when it wins.
      InnerOutcome full =
          inner_topology_search(nas, task, task.data, nullptr, 0.0, 0, w.rng, w.memo,
                                std::min<std::size_t>(2, nas.inner_iterations), search_ctx);
      absorb(w, std::move(full), task);
      gp::BoOptions outer_opts;
      outer_opts.dim = 1;
      outer_opts.constraint_threshold = task.quality_bound;
      outer_opts.init_samples = nas.bayesian_init;
      w.outer = std::make_unique<gp::BayesianOptimizer>(outer_opts, w.rng.fork());
    }

    // K comes from the adopted elite when one is pending, otherwise from the
    // worker's own outer GP; either way the outcome is observed into the
    // worker's own GP (adoption exchanges elites, not models).
    std::vector<double> xk;
    std::size_t k = 0;
    if (w.adopted.has_value()) {
      k = std::clamp(w.adopted->latent_k, k_min, k_max);
      xk = {encode_latent_k(k, k_min, k_max)};
    } else {
      xk = w.outer->propose();
      k = decode_latent_k(xk[0], k_min, k_max);
    }
    w.adopted.reset();

    OuterIterate iterate =
        run_outer_iterate(nas, task, k, round, w.rng, w.memo, search_ctx);
    w.outer->observe({xk, task.expected_online_seconds(iterate.inner.best),
                      iterate.outer_constraint});
    absorb(w, std::move(iterate.inner), task);
  };

  for (std::size_t round = 0; round < rounds; ++round) {
    // Segment barrier: every worker finishes the round before any
    // tournament, and the tournament reads workers in id order, so merged
    // state is independent of completion order.
    parallel_tasks(population, [&](std::size_t w) { run_round(workers[w], round); });

    // Tournament (skipped on the final round — there would be no rounds
    // left to exploit an adoption).
    if (population < 2 || (round + 1) % interval != 0 || round + 1 >= rounds) {
      continue;
    }
    for (const auto& [a, b] : pairing(task.seed, round, population)) {
      WorkerState& wa = workers[a];
      WorkerState& wb = workers[b];
      if (!wa.has_best() || !wb.has_best()) continue;
      // `a` defends ties: only a strictly better `b` wins.
      const bool b_wins = better_pipeline(wb.best, wa.best, task);
      WorkerState& winner = b_wins ? wb : wa;
      WorkerState& loser = b_wins ? wa : wb;
      TournamentRecord rec;
      rec.round = round;
      rec.winner = winner.id;
      rec.loser = loser.id;
      rec.adopted = perturb_elite(elite_of(winner), task.seed, round, loser.id,
                                  task.space, k_min, k_max, options_.k_jitter);
      loser.adopted = rec.adopted;
      result.tournaments.push_back(std::move(rec));
    }
  }

  result.workers.reserve(population);
  for (WorkerState& w : workers) {
    WorkerResult wr;
    wr.worker = w.id;
    wr.best = w.best;
    wr.steps = std::move(w.steps);
    result.workers.push_back(std::move(wr));
  }
  std::size_t best_worker = 0;
  for (std::size_t w = 1; w < population; ++w) {
    if (better_pipeline(result.workers[w].best, result.workers[best_worker].best, task)) {
      best_worker = w;
    }
  }
  result.best = result.workers[best_worker].best;
  result.best_worker = best_worker;
  result.found_feasible = result.best.quality_error <= task.quality_bound;
  result.search_seconds = total.seconds();
  AHN_INFO_C("nas", "LTFB population " << population << " finished: "
                    << result.evaluations() << " evaluations, "
                    << result.tournaments.size() << " tournaments, best f_e "
                    << result.best.quality_error << " from worker " << best_worker);
  return result;
}

runtime::RetrainCandidateFn make_population_train_fn(PopulationOptions options,
                                                     nn::TrainOptions train,
                                                     double quality_bound) {
  return [options, train, quality_bound](const runtime::ServableModel& active,
                                         const nn::Dataset& data) {
    SearchTask task;
    task.data = data;
    task.train = train;
    task.quality_bound = quality_bound;
    // f_e for the retrain search: per-row relative error on the labeled
    // reservoir itself (the freshest ground truth available mid-drift). No
    // exact region is priced here, so candidates rank by f_c.
    task.evaluate_quality = [&task](const PipelineModel& pm) {
      const Tensor features = pm.encoder != nullptr ? pm.encoder->encode(task.data.x)
                                                    : task.data.x;
      return nn::row_relative_errors(pm.surrogate.predict(features), task.data.y);
    };

    const PopulationResult res = PopulationSearch(options).search(task);

    runtime::RetrainCandidate rc;
    if (res.found_feasible) {
      rc.surrogate = res.best.surrogate;
      rc.replace_encoder = true;
      if (res.best.encoder != nullptr) {
        const std::shared_ptr<const autoencoder::Autoencoder> enc = res.best.encoder;
        rc.encode = [enc](const Tensor& x) { return enc->encode(x); };
        rc.encode_ops = enc->encode_cost(1);
      }
      rc.infer_ops = rc.surrogate.net.inference_cost(1);
      return rc;
    }
    // Nothing feasible within the bound: warm-start fine-tune of the active
    // topology, exactly like the Retrainer's built-in trainer, so the cycle
    // still hands the rollout gates a candidate.
    rc.surrogate = nn::train_surrogate(active.surrogate.net, data, train);
    rc.infer_ops = rc.surrogate.net.inference_cost(1);
    return rc;
  };
}

}  // namespace ahn::nas
