#pragma once
// Application-level evaluation: whole-application speedup (Eqn 2) and
// prediction hit rate (Eqn 3), with the online-time breakdown of §7.3 and
// the restart-on-miss fallback accounting of §7.1.

#include <span>

#include "common/serving_stats.hpp"
#include "apps/application.hpp"
#include "nas/search_task.hpp"
#include "runtime/device.hpp"

namespace ahn::core {

struct AppEvaluation {
  double speedup = 1.0;        ///< Eqn 2 over all evaluation problems
  double hit_rate = 1.0;       ///< Eqn 3
  double mean_qoi_error = 0.0;
  double exact_seconds = 0.0;      ///< sum T_solver + T_other (measured)
  double surrogate_seconds = 0.0;  ///< sum T_infer' + T_load' + T_other (+fallback)
  RequestPhases breakdown;         ///< summed modeled online phases
};

struct EvalOptions {
  double mu = 0.1;             ///< Eqn-3 acceptance bound
  bool fallback_on_miss = true;///< restart with the original code on a miss
  ServingStats* stats = nullptr;///< optional serving-metrics sink (QoI
                               ///  fallbacks + per-request phase latency)
};

/// Evaluates a searched pipeline on the given problems of `app`.
[[nodiscard]] AppEvaluation evaluate_pipeline(const apps::Application& app,
                                              std::span<const std::size_t> problems,
                                              const nas::PipelineModel& model,
                                              const runtime::DeviceModel& device,
                                              const EvalOptions& opts = {});

}  // namespace ahn::core
