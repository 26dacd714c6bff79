#pragma once
// Population-based 2D NAS with LTFB-style tournament elite exchange
// (docs/NAS.md; ROADMAP item 4). Constant-liar batching (gp/bayesopt.hpp)
// parallelizes candidate *training* but still serializes every round on a
// single GP pair; PopulationSearch removes that cap the way LBANN's
// callback_ltfb + perturb_weights do for model training: P independent 2D
// search workers — each owning its own outer (K) and inner (theta) GPs, its
// own Rng stream and its own evaluation memo — run concurrently, and every
// `tournament_interval` rounds workers pairwise tournament on the validation
// objective. The loser adopts the winner's elite (K, theta) under a seeded
// perturbation (K jitter inside [k_min, k_max], theta width/depth mutation)
// while keeping its own GP history; only elites cross workers, GP state
// never does.
//
// Determinism contract: a fixed task seed yields a bitwise-identical search
// at any OpenMP team budget. Worker streams are seeded by
// (seed, worker-id); tournament pairing and perturbation are drawn from
// schedules keyed by (seed, round[, loser-id]) — never by arrival order —
// and tournaments happen at a barrier over per-round results merged in
// worker-id order. Each round's worker bodies run as whole tasks on the
// caller's team (parallel_tasks in common/parallel.hpp), each at a team of
// one; a population of one runs inline at the caller's budget.

#include <cstdint>
#include <utility>
#include <vector>

#include "nas/two_d_nas.hpp"
#include "runtime/retrainer.hpp"

namespace ahn::nas {

struct PopulationOptions {
  /// Per-worker 2D-NAS knobs. `nas.outer_iterations` is ignored (the
  /// population's `rounds` drives the outer loop).
  NasOptions nas;
  std::size_t population = 4;          ///< P independent search workers
  std::size_t rounds = 4;              ///< outer rounds per worker
  std::size_t tournament_interval = 1; ///< tournament every N rounds
  /// Half-width of the uniform jitter applied to an adopted elite's K in
  /// log-encoded [0,1] space (decode clamps back into [k_min, k_max]).
  double k_jitter = 0.25;
};

/// What crosses workers at a tournament: the winner's best (K, theta) and
/// the objectives that won — never GP state or trained weights.
struct Elite {
  std::size_t latent_k = 0;  ///< 0 = no feature reduction
  nn::TopologySpec spec;
  double quality_error = 0.0;
  double modeled_infer_seconds = 0.0;
  std::size_t from_worker = 0;
};

/// One tournament decision, for the audit trail and the ablation bench.
struct TournamentRecord {
  std::size_t round = 0;
  std::size_t winner = 0;
  std::size_t loser = 0;
  Elite adopted;  ///< the winner's elite *after* the loser's perturbation
};

struct WorkerResult {
  std::size_t worker = 0;
  PipelineModel best;
  std::vector<SearchStep> steps;
};

struct PopulationResult {
  PipelineModel best;  ///< global elite across workers
  bool found_feasible = false;
  std::size_t best_worker = 0;
  std::vector<WorkerResult> workers;
  std::vector<TournamentRecord> tournaments;
  double search_seconds = 0.0;

  [[nodiscard]] std::size_t evaluations() const noexcept {
    std::size_t n = 0;
    for (const WorkerResult& w : workers) n += w.steps.size();
    return n;
  }
};

class PopulationSearch {
 public:
  explicit PopulationSearch(PopulationOptions options) : options_(std::move(options)) {}

  [[nodiscard]] PopulationResult search(const SearchTask& task) const;

  /// Deterministic tournament pairing for one round: a seeded permutation of
  /// [0, population) folded into disjoint pairs; with odd population the
  /// last permuted worker sits the round out. Keyed by (seed, round) only —
  /// worker completion order cannot steer it. Exposed for tests.
  [[nodiscard]] static std::vector<std::pair<std::size_t, std::size_t>> pairing(
      std::uint64_t seed, std::size_t round, std::size_t population);

  /// Seeded perturbation of an adopted elite, keyed by (seed, round, loser):
  /// K jittered in log-encoded space and clamped to [k_min, k_max]; theta
  /// width scaled in [0.75, 1.25] and depth stepped ±1, both clamped to the
  /// topology space. Exposed for tests.
  [[nodiscard]] static Elite perturb_elite(const Elite& winner, std::uint64_t seed,
                                           std::size_t round, std::size_t loser,
                                           const nn::TopologySpace& space,
                                           std::size_t k_min, std::size_t k_max,
                                           double k_jitter);

 private:
  PopulationOptions options_;
};

/// Builds a RetrainerOptions::candidate_fn that re-searches (K, theta) with
/// a PopulationSearch over the labeled reservoir rows — closing ROADMAP
/// item 2's remainder: a drift-triggered retrain is no longer restricted to
/// warm-starting the active topology. The returned candidate may carry a
/// freshly searched encoder (replace_encoder), or drop reduction entirely
/// when the full-input elite wins. When the search finds nothing feasible
/// within `quality_bound`, falls back to the plain warm-start fine-tune so
/// a retrain cycle always produces a candidate for the rollout gates.
[[nodiscard]] runtime::RetrainCandidateFn make_population_train_fn(
    PopulationOptions options, nn::TrainOptions train, double quality_bound = 0.1);

}  // namespace ahn::nas
