#pragma once
// Application interface for the 11 evaluation workloads (Table 2). Each app
// owns a family of input problems, an exact implementation of the replaced
// code region, the surrounding (non-replaced) computation, and its
// quality-of-interest. The framework core consumes only this interface.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "sparse/formats.hpp"

namespace ahn::apps {

enum class AppType { TypeI, TypeII, TypeIII };

[[nodiscard]] const char* app_type_name(AppType t) noexcept;

/// Result of running the exact (original) code region on one problem.
struct RegionRun {
  std::vector<double> outputs;  ///< flattened output features
  double region_seconds = 0.0;  ///< measured wall time of the region
  OpCounts region_ops;          ///< analytic FLOP/byte counts of the region
};

class Application {
 public:
  virtual ~Application() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual AppType type() const = 0;
  /// The replaced function, as named in Table 2 (e.g. "CG_solver").
  [[nodiscard]] virtual std::string replaced_function() const = 0;
  [[nodiscard]] virtual std::string qoi_name() const = 0;

  /// Deterministically (re)generates `count` input problems from `seed`.
  virtual void generate_problems(std::size_t count, std::uint64_t seed) = 0;

  /// Training-sample count that reaches the paper's quality regime for this
  /// app on laptop-scale budgets (the paper uses 2000 problems per app).
  /// Cheap-region apps afford more samples; wide-input apps fewer.
  [[nodiscard]] virtual std::size_t recommended_train_problems() const { return 600; }
  [[nodiscard]] virtual std::size_t problem_count() const = 0;

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;

  /// Flattened input features of problem i (always available; for sparse
  /// apps this is the dense expansion the paper's §2 calls out as wasteful).
  /// Must be safe to call concurrently, like run_region: sample acquisition
  /// and the search's concurrent arms call it from several threads.
  [[nodiscard]] virtual std::vector<double> input_features(std::size_t i) const = 0;

  /// True when the natural input representation is a sparse matrix/vector.
  [[nodiscard]] virtual bool has_sparse_input() const { return false; }

  /// CSR batch of the given problems' features (one row per problem). Only
  /// meaningful when has_sparse_input(); default densifies.
  [[nodiscard]] virtual sparse::Csr sparse_input_batch(
      std::span<const std::size_t> problems) const;

  /// Runs the exact code region on problem i. Must be safe to call
  /// concurrently for different problems, and give each problem the same
  /// outputs whatever runs beside it: AutoHPCnet::acquire_samples runs the
  /// training problems in parallel. No app keeps mutable state across calls.
  [[nodiscard]] virtual RegionRun run_region(std::size_t i) const = 0;

  /// Loop-perforated variant of the region (the HPAC-style baseline):
  /// `keep_fraction` in (0, 1] is the fraction of the perforable loop that
  /// still executes. Each app perforates its own dominant loop (solver
  /// iterations, option loop, annealing sweeps, ...). The default runs the
  /// exact region, i.e. apps without a perforable loop gain nothing.
  [[nodiscard]] virtual RegionRun run_region_perforated(std::size_t i,
                                                        double keep_fraction) const {
    (void)keep_fraction;
    return run_region(i);
  }

  /// Wall time of the application parts outside the replaced region for one
  /// problem (T_other of Eqn 2). Apps with negligible surroundings return a
  /// small measured constant.
  [[nodiscard]] virtual double other_part_seconds(std::size_t i) const = 0;

  /// Application QoI computed from region outputs for problem i (Table 2).
  [[nodiscard]] virtual double qoi(std::size_t i,
                                   std::span<const double> region_outputs) const = 0;

  /// Relative QoI discrepancy between a surrogate run and the exact run for
  /// problem i — the |V' - V| / |V| of Eqn 3. The default compares the
  /// scalar qoi(); vector-solution apps override with a normalized vector
  /// distance (the natural reading of e.g. "solution of linear equations").
  /// Must be safe to call concurrently, like run_region (and so must the
  /// qoi() the default calls): the search's quality callback
  /// (AutoHPCnet::make_task) scores concurrent arms' candidates.
  [[nodiscard]] virtual double qoi_error(std::size_t i,
                                         std::span<const double> exact_outputs,
                                         std::span<const double> surrogate_outputs) const;
};

/// Shared RAII-style region runner: measures wall time and analytic op
/// counts of the exact kernel body.
template <typename Fn>
[[nodiscard]] RegionRun timed_region(Fn&& body) {
  RegionRun run;
  const FlopRegion region;
  const Timer timer;
  run.outputs = body();
  run.region_seconds = timer.seconds();
  run.region_ops = region.delta();
  return run;
}

/// Normalized L2 distance ||a - b|| / ||b|| used by vector-QoI apps.
[[nodiscard]] double relative_l2(std::span<const double> a, std::span<const double> b);

/// Shared helper: dense row batch of input features.
[[nodiscard]] std::vector<std::vector<double>> dense_input_batch(
    const Application& app, std::span<const std::size_t> problems);

}  // namespace ahn::apps
