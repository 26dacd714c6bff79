#pragma once
// Search-task definition shared by the 2D NAS, the Autokeras-like baseline
// and the grid-search comparator. A task bundles the training data, the
// quality-degradation evaluator (per-problem Eqn-3 errors — application-level,
// via a callback so nas stays independent of the apps module), the device
// model pricing f_c, the exact region's modeled cost T_exact, and the user's
// bounds (Table 1: qualityLoss / encodingLoss).

#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "autoencoder/autoencoder.hpp"
#include "nn/quantization.hpp"
#include "nn/topology.hpp"
#include "nn/train.hpp"
#include "runtime/device.hpp"
#include "sparse/formats.hpp"

namespace ahn::nas {

/// A candidate end-to-end surrogate pipeline: optional encoder + surrogate,
/// with its measured search objectives.
struct PipelineModel {
  std::shared_ptr<const autoencoder::Autoencoder> encoder;  ///< null = full input
  nn::TrainedSurrogate surrogate;
  nn::TopologySpec spec;
  std::size_t latent_k = 0;  ///< 0 = no feature reduction

  double quality_error = std::numeric_limits<double>::infinity();         ///< f_e
  double modeled_infer_seconds = std::numeric_limits<double>::infinity(); ///< f_c
  /// ĥ: share of the validation problems whose Eqn-3 error is within the
  /// task's mu — the problems that would not fall back to the exact region.
  double hit_share = 0.0;

  /// Numeric mode the objectives above were measured at. When the search
  /// runs with search_precision on, evaluate_candidate also prices the int8
  /// variant of each trained candidate and keeps the better mode — so
  /// (K, theta, precision) are optimized jointly under the same objective.
  nn::Precision precision = nn::Precision::kFp32;

  /// End-to-end prediction for one problem's full-width features.
  [[nodiscard]] std::vector<double> infer(std::span<const double> features) const;
};

struct SearchTask {
  nn::Dataset data;                    ///< full-width features -> outputs
  const sparse::Csr* sparse_x = nullptr;  ///< optional CSR view of data.x

  /// Application-level quality degradation of a candidate: its Eqn-3 error
  /// on each validation problem. evaluate_candidate derives f_e (the mean)
  /// and ĥ (the share within `mu`) from one call. Must be callable
  /// repeatedly and return at least one error.
  std::function<std::vector<double>(const PipelineModel&)> evaluate_quality;

  runtime::DeviceModel device;
  double quality_bound = 0.1;        ///< epsilon on f_e (Table 1 qualityLoss)
  double mu = 0.1;                   ///< Eqn-3 acceptance bound behind ĥ
  /// T_exact: modeled seconds of one run of the exact region, which every
  /// Eqn-3 miss pays online (Eqn 2). 0 when the task has no exact region;
  /// candidates then rank by f_c alone.
  double exact_seconds = 0.0;
  double encoding_loss_bound = 0.2;  ///< Eqn-1 bound (Table 1 encodingLoss)

  nn::TrainOptions train;            ///< model-level knobs (Table 1)
  nn::TopologySpace space;
  std::uint64_t seed = 11;

  /// When true, every trained candidate is additionally calibrated to int8
  /// (on the reduced training inputs) and re-priced; better_pipeline picks
  /// the mode. Training itself always runs fp32 — precision is a
  /// post-training execution axis, so it adds one calibration pass and one
  /// quality evaluation per candidate, not a second training run.
  bool search_precision = false;
  nn::QuantizationOptions quant;     ///< calibration knobs for that pass

  /// E = f_c + (1 − ĥ)·T_exact: expected online seconds per problem, the
  /// searchers' objective among feasible candidates.
  [[nodiscard]] double expected_online_seconds(double modeled_infer_seconds,
                                               double hit_share) const noexcept {
    return modeled_infer_seconds + (1.0 - hit_share) * exact_seconds;
  }
  [[nodiscard]] double expected_online_seconds(const PipelineModel& pm) const noexcept {
    return expected_online_seconds(pm.modeled_infer_seconds, pm.hit_share);
  }
};

/// `a` dominates `b` under `task`: feasibility (f_e within quality_bound)
/// first, then expected online seconds E among feasible candidates, then f_e
/// among infeasible ones. The one comparator of every searcher, the LTFB
/// tournament and evaluate_candidate's precision pick.
[[nodiscard]] bool better_pipeline(const PipelineModel& a, const PipelineModel& b,
                                   const SearchTask& task);

/// Builds, trains and prices one candidate on (optionally reduced) data.
/// Shared by all searchers. Takes its Rng by value so each candidate owns an
/// independent stream — the searchers fork one child per proposal in a fixed
/// drafting order, which is what lets concurrent evaluation reproduce the
/// serial results exactly.
[[nodiscard]] PipelineModel evaluate_candidate(
    const SearchTask& task, const nn::TopologySpec& spec,
    std::shared_ptr<const autoencoder::Autoencoder> encoder,
    const nn::Dataset& reduced_data, Rng rng);

/// Builds a RetrainerOptions::train_fn that fine-tunes the active surrogate
/// on the reservoir rows (warm start, refit normalizers) and then — when
/// `opts.search_precision`-style quantization is requested via `quant` —
/// calibrates the candidate to int8 if the quantized copy keeps the training
/// relative error within `quality_bound`. This is how a drift-triggered
/// retrain can hand the rollout machinery a quantized candidate: the
/// shadow/canary/QoI gates treat it exactly like a precision-less one.
[[nodiscard]] std::function<nn::TrainedSurrogate(const nn::TrainedSurrogate&,
                                                 const nn::Dataset&)>
make_precision_train_fn(nn::TrainOptions train, nn::QuantizationOptions quant,
                        double quality_bound = 0.1);

}  // namespace ahn::nas
