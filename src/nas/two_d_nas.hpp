#pragma once
// 2D neural architecture search (§5, Algorithm 2): a hierarchical Bayesian
// optimization whose outer loop tunes the input dimension K (training a
// fresh autoencoder per proposal) and whose inner loop tunes the surrogate
// topology theta on the K-reduced features. The two loops coordinate: the
// inner loop returns the best (E, f_e) for the outer GP to respond to, where
// E = f_c + (1 − ĥ)·T_exact is the expected online time per problem.
//
// Keeping K and theta in separate GPs is the paper's fix for the broken
// Euclidean semantics of concatenating feature-count and topology knobs in
// one optimization vector (§5.2) — the ablation bench quantifies this
// against a flat joint BO.

#include <iosfwd>
#include <string>
#include <unordered_map>

#include "gp/bayesopt.hpp"
#include "nas/search_task.hpp"
#include "obs/trace.hpp"

namespace ahn::nas {

enum class SearchType { Autokeras, UserModel, FullInput };

[[nodiscard]] const char* search_type_name(SearchType t) noexcept;

struct NasOptions {
  SearchType search_type = SearchType::Autokeras;  ///< Table 1 "searchType"
  nn::TopologySpec user_model;  ///< starting spec for SearchType::UserModel
  std::size_t bayesian_init = 3;   ///< Table 1 "bayesianInit"
  std::size_t outer_iterations = 4;
  std::size_t inner_iterations = 6;
  std::size_t k_min = 4;
  std::size_t k_max = 64;          ///< clamped to the task's input width
  std::size_t ae_epochs = 40;
  /// Stop early once a feasible candidate beats this objective-improvement
  /// stagnation count (the paper: "a continuing search does not lead to
  /// enough improvement").
  std::size_t patience = 3;
  /// Inner-loop candidates proposed per BO round (constant-liar batch). A
  /// round's fresh candidates train as whole tasks on the caller's OpenMP
  /// team (common/parallel.hpp), each at a team of one. An algorithm
  /// parameter, independent of the team: the same eval_batch yields the
  /// same search at any team budget.
  std::size_t eval_batch = 1;
};

/// One completed (K, theta) evaluation — the searchers' audit trail and the
/// data source of the BO-efficiency bench.
struct SearchStep {
  std::size_t outer_iteration = 0;
  std::size_t latent_k = 0;
  nn::TopologySpec spec;
  double quality_error = 0.0;
  double modeled_infer_seconds = 0.0;
  double hit_share = 0.0;      ///< ĥ on the validation problems
  double encoding_miss = 0.0;  ///< Eqn-1 miss fraction of the iteration's AE
  double elapsed_seconds = 0.0;
  /// Execution mode the candidate was accepted at (kInt8 only when the task
  /// runs with search_precision). Not serialized in checkpoints — a resumed
  /// search re-derives it when it re-evaluates.
  nn::Precision precision = nn::Precision::kFp32;
};

struct NasResult {
  PipelineModel best;
  bool found_feasible = false;
  std::vector<SearchStep> steps;
  double autoencoder_train_seconds = 0.0;
  double search_seconds = 0.0;

  [[nodiscard]] std::size_t evaluations() const noexcept { return steps.size(); }
};

/// Outcome of one inner (theta) search — shared between the hierarchical
/// searcher and the LTFB population workers (nas/ltfb.hpp).
struct InnerOutcome {
  PipelineModel best;
  std::vector<SearchStep> steps;
};

/// Memoizes completed (K, theta) evaluations across one search stream so a
/// re-proposed candidate is never retrained. Keys qualify the spec with the
/// outer iteration (each iteration trains a fresh autoencoder) or with
/// "full" for unreduced evaluations, which stay valid search-wide. Each
/// population worker owns its own memo — cached models never cross workers.
using EvalMemo = std::unordered_map<std::string, PipelineModel>;

/// Log-scaled K encoding for the 1-D outer GP (and its inverse). decode
/// clamps to [k_min, k_max], so any perturbed encoding stays in bounds.
[[nodiscard]] double encode_latent_k(std::size_t k, std::size_t k_min, std::size_t k_max);
[[nodiscard]] std::size_t decode_latent_k(double x, std::size_t k_min, std::size_t k_max);

/// One inner BO over topology theta on (optionally reduced) features.
/// Proposal drafting, Rng forking and memoization run on the caller's
/// thread in proposal order, so the outcome is independent of the team that
/// trains a round's candidates. It takes
/// one draw from `rng` for its BO plus one per drafted candidate. Its
/// "nas.inner_search" span opens under `parent`.
[[nodiscard]] InnerOutcome inner_topology_search(
    const NasOptions& options, const SearchTask& task, const nn::Dataset& reduced,
    std::shared_ptr<const autoencoder::Autoencoder> encoder, double encoding_miss,
    std::size_t outer_iter, Rng& rng, EvalMemo& memo, std::size_t iterations = 0,
    obs::SpanContext parent = obs::Tracer::current());

/// One outer-loop iterate at a fixed K: trains the iteration's fresh
/// autoencoder, reduces the features, runs the inner search. It takes one
/// draw from `rng` (the autoencoder's seed) plus the inner search's. The returned
/// `outer_constraint` is the f_e the outer GP should observe — inflated past
/// the feasibility threshold when the autoencoder misses its encoding bound.
/// Its "nas.autoencoder_train" and "nas.inner_search" spans open under
/// `parent`.
struct OuterIterate {
  InnerOutcome inner;
  std::size_t latent_k = 0;
  double encoding_miss = 0.0;
  bool ae_meets_bound = true;
  double autoencoder_seconds = 0.0;
  double outer_constraint = 0.0;
};
[[nodiscard]] OuterIterate run_outer_iterate(const NasOptions& options,
                                             const SearchTask& task, std::size_t k,
                                             std::size_t outer_iter, Rng& rng,
                                             EvalMemo& memo,
                                             obs::SpanContext parent = obs::Tracer::current());

class TwoDNas {
 public:
  explicit TwoDNas(NasOptions options) : options_(options) {}

  /// Runs Algorithm 2. The arms fixed before any result arrives — the
  /// no-reduction reference arm and the outer loop's random initial design
  /// — run as one parallel_for on the calling thread's OpenMP team, each
  /// at a team of one, and are recorded in serial order afterwards, so the
  /// search is the same bits at any team size.
  [[nodiscard]] NasResult search(const SearchTask& task) const;

  /// Checkpointing (§6.1): serializes the completed steps so a later run
  /// can warm-start the outer GP instead of re-evaluating.
  static void save_checkpoint(std::ostream& os, const NasResult& partial);
  [[nodiscard]] static std::vector<SearchStep> load_checkpoint(std::istream& is);

  /// Warm-started search: previously completed steps seed the outer GP.
  [[nodiscard]] NasResult search_from(const SearchTask& task,
                                      const std::vector<SearchStep>& prior) const;

 private:
  NasOptions options_;
};

}  // namespace ahn::nas
