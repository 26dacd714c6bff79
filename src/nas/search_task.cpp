#include "nas/search_task.hpp"

namespace ahn::nas {

std::vector<double> PipelineModel::infer(std::span<const double> features) const {
  Tensor x({1, features.size()});
  std::copy(features.begin(), features.end(), x.row(0).begin());
  const Tensor reduced = encoder != nullptr ? encoder->encode(x) : x;
  const Tensor pred = surrogate.predict(reduced);
  return {pred.row(0).begin(), pred.row(0).end()};
}

bool better_pipeline(const PipelineModel& a, const PipelineModel& b,
                     const SearchTask& task) {
  const bool fa = a.quality_error <= task.quality_bound;
  const bool fb = b.quality_error <= task.quality_bound;
  if (fa != fb) return fa;
  if (fa) return task.expected_online_seconds(a) < task.expected_online_seconds(b);
  return a.quality_error < b.quality_error;
}

namespace {

/// f_e and ĥ of `pm` from one replay of the validation problems.
void score_quality(const SearchTask& task, PipelineModel& pm) {
  const std::vector<double> errors = task.evaluate_quality(pm);
  AHN_CHECK(!errors.empty());
  double total = 0.0;
  std::size_t hits = 0;
  for (const double e : errors) {
    total += e;
    if (e <= task.mu) ++hits;
  }
  const auto n = static_cast<double>(errors.size());
  pm.quality_error = total / n;
  pm.hit_share = static_cast<double>(hits) / n;
}

}  // namespace

PipelineModel evaluate_candidate(const SearchTask& task, const nn::TopologySpec& spec,
                                 std::shared_ptr<const autoencoder::Autoencoder> encoder,
                                 const nn::Dataset& reduced_data, Rng rng) {
  PipelineModel pm;
  pm.encoder = std::move(encoder);
  pm.spec = spec;
  pm.latent_k = pm.encoder != nullptr ? pm.encoder->latent_dim() : 0;

  nn::Network net = nn::build_surrogate(spec, reduced_data.in_features(),
                                        reduced_data.out_features(), rng);
  pm.surrogate = nn::train_surrogate(std::move(net), reduced_data, task.train);

  // f_c: modeled per-problem inference time on the device, including the
  // encoder's share when feature reduction is in front.
  OpCounts ops = pm.surrogate.net.inference_cost(1);
  if (pm.encoder != nullptr) ops += pm.encoder->encode_cost(1);
  pm.modeled_infer_seconds =
      task.device.kernel_seconds(ops, runtime::nn_inference_profile());

  // f_e and ĥ: application-level quality degradation.
  score_quality(task, pm);

  if (!task.search_precision) return pm;

  // Precision axis: calibrate the trained candidate to int8 and re-measure
  // both objectives. The encoder stays fp32 (it is shared across candidates
  // and not a dense-layer stack), so only the surrogate's share is re-priced
  // at the int8 rate. Train-once / evaluate-twice keeps the axis nearly
  // free relative to a second training run.
  PipelineModel qpm = pm;
  nn::quantize_surrogate(qpm.surrogate, reduced_data.x, task.quant);
  qpm.precision = nn::Precision::kInt8;
  double qt = task.device.kernel_seconds(qpm.surrogate.net.inference_cost(1),
                                         runtime::nn_int8_inference_profile());
  if (qpm.encoder != nullptr) {
    qt += task.device.kernel_seconds(qpm.encoder->encode_cost(1),
                                     runtime::nn_inference_profile());
  }
  qpm.modeled_infer_seconds = qt;
  score_quality(task, qpm);
  return better_pipeline(qpm, pm, task) ? qpm : pm;
}

std::function<nn::TrainedSurrogate(const nn::TrainedSurrogate&, const nn::Dataset&)>
make_precision_train_fn(nn::TrainOptions train, nn::QuantizationOptions quant,
                        double quality_bound) {
  return [train, quant, quality_bound](const nn::TrainedSurrogate& active,
                                       const nn::Dataset& data) {
    // Warm-start fine-tune, exactly like the Retrainer's built-in trainer
    // (train_surrogate forces the copy back to fp32 before the first step).
    nn::TrainedSurrogate cand = nn::train_surrogate(active.net, data, train);

    nn::TrainedSurrogate quantized = cand;
    nn::quantize_surrogate(quantized, data.x, quant);
    const double fp_err = nn::mean_relative_error(cand.predict(data.x), data.y);
    const double q_err = nn::mean_relative_error(quantized.predict(data.x), data.y);
    // Serve int8 when it holds the bound — or degrades the fine-tuned model
    // by under 10% relative when even fp32 misses the bound.
    if (q_err <= quality_bound || q_err <= fp_err * 1.1) return quantized;
    return cand;
  };
}

}  // namespace ahn::nas
