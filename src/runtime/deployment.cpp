#include "runtime/deployment.hpp"

#include "common/error.hpp"

namespace ahn::runtime {

DeploymentPackage DeploymentPackage::build(std::string name,
                                           std::shared_ptr<const ServableModel> model,
                                           const Tensor& training_inputs) {
  AHN_CHECK(model != nullptr);
  AHN_CHECK_MSG(training_inputs.rank() == 2 && training_inputs.rows() > 0,
                "reference sketch needs a non-empty N x F training matrix");
  auto sketch = std::make_shared<obs::FeatureSketch>(training_inputs.cols());
  for (std::size_t r = 0; r < training_inputs.rows(); ++r) {
    sketch->observe(training_inputs.row(r));
  }
  DeploymentPackage pkg;
  pkg.name = std::move(name);
  pkg.model = std::move(model);
  pkg.reference = std::move(sketch);
  return pkg;
}

namespace {

/// Calibrate + quantize `model` in place on the pre-encode training rows.
std::size_t quantize_model(ServableModel& model, const Tensor& raw_inputs,
                           const nn::QuantizationOptions& opts) {
  // The surrogate consumes post-encoder rows; calibrate on exactly those.
  const Tensor calib = model.encode ? model.encode(raw_inputs) : raw_inputs;
  const std::size_t n = nn::quantize_surrogate(model.surrogate, calib, opts);
  model.infer_ops = model.surrogate.net.inference_cost(1);
  return n;
}

}  // namespace

DeploymentPackage DeploymentPackage::build(std::string name, ServableModel model,
                                           const Tensor& training_inputs,
                                           const QuantizeSpec& spec) {
  if (spec.enabled) quantize_model(model, training_inputs, spec.options);
  return build(std::move(name),
               std::make_shared<const ServableModel>(std::move(model)), training_inputs);
}

ServableModel quantized_servable(const ServableModel& base, const Tensor& raw_inputs,
                                 const nn::QuantizationOptions& opts) {
  ServableModel copy = base;  // deep copy: Network assignment clones layers
  quantize_model(copy, raw_inputs, opts);
  return copy;
}

}  // namespace ahn::runtime
