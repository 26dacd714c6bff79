#pragma once
// DeploymentPackage is the unit Orchestrator::deploy() installs: the
// servable model bundled with the training-set reference FeatureSketch that
// the model-health monitor scores live inputs against
// (docs/OBSERVABILITY.md — drift detection).

#include <memory>
#include <string>

#include "nn/quantization.hpp"
#include "obs/monitor.hpp"
#include "runtime/orchestrator.hpp"

namespace ahn::runtime {

/// Opt-in int8 packaging: when enabled, DeploymentPackage::build runs the
/// calibrator over the training inputs (through the encoder when present)
/// and installs quantized payloads before the model is frozen — so the int8
/// weights live inside the ServableModel and replicate through ModelRegistry
/// versioning and cluster deploy fan-out with no extra plumbing.
struct QuantizeSpec {
  bool enabled = false;
  nn::QuantizationOptions options;
};

/// Everything a surrogate needs to go live: the servable model plus the
/// training-set reference sketch drift detection compares live inputs to.
/// Built once at deployment time (the sketch is a single bounded pass over
/// the training inputs) and handed to Orchestrator::deploy().
struct DeploymentPackage {
  std::string name;
  std::shared_ptr<const ServableModel> model;
  /// Per-feature count/mean/variance + P² decile estimates over the
  /// training inputs; may be null (no drift detection for this model).
  std::shared_ptr<const obs::FeatureSketch> reference;

  /// Sketches `training_inputs` (N x F, the raw pre-encode features —
  /// exactly what the serving paths see) and bundles it with the model.
  [[nodiscard]] static DeploymentPackage build(std::string name,
                                               std::shared_ptr<const ServableModel> model,
                                               const Tensor& training_inputs);

  /// Quantizing overload: takes the model by value, calibrates + quantizes
  /// per `spec`, refreshes infer_ops for the int8 cost model, then freezes.
  [[nodiscard]] static DeploymentPackage build(std::string name, ServableModel model,
                                               const Tensor& training_inputs,
                                               const QuantizeSpec& spec);
};

/// Deep-copies `base`, calibrates on `raw_inputs` (the same pre-encode rows
/// serving sees) and switches the copy to int8. The returned model is a
/// drop-in rollout candidate: install_candidate + begin_rollout put it
/// behind the identical shadow/canary/QoI machinery a retrained model gets.
[[nodiscard]] ServableModel quantized_servable(const ServableModel& base,
                                               const Tensor& raw_inputs,
                                               const nn::QuantizationOptions& opts = {});

}  // namespace ahn::runtime
