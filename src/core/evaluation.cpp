#include "core/evaluation.hpp"

#include <algorithm>

namespace ahn::core {

namespace {

/// Row `row` of a CSR batch as its own one-row CSR matrix.
sparse::Csr csr_row(const sparse::Csr& batch, std::size_t row) {
  AHN_CHECK(row < batch.rows());
  sparse::Coo coo;
  coo.rows = 1;
  coo.cols = batch.cols();
  const auto& rp = batch.row_ptr();
  const auto& ci = batch.col_idx();
  const auto& v = batch.values();
  for (std::size_t k = rp[row]; k < rp[row + 1]; ++k) coo.push(0, ci[k], v[k]);
  return sparse::Csr::from_coo(std::move(coo));
}

}  // namespace

AppEvaluation evaluate_pipeline(const apps::Application& app,
                                std::span<const std::size_t> problems,
                                const nas::PipelineModel& model,
                                const runtime::DeviceModel& device,
                                const EvalOptions& opts) {
  AHN_CHECK(!problems.empty());
  const bool has_encoder = model.encoder != nullptr;
  const OpCounts encode_ops = has_encoder ? model.encoder->encode_cost(1) : OpCounts{};
  // Priced on a copy, as this evaluation always has been: a copy's
  // activation layers report no cost until they run a forward
  // (ActivationLayer::clone resets their width), so activations stay out of
  // the modeled run phase.
  const OpCounts infer_ops = nn::Network(model.surrogate.net).inference_cost(1);
  const bool int8 = model.surrogate.net.precision() == nn::Precision::kInt8;

  // When the app's natural input is sparse, ship the CSR batch (the sparse
  // fast path: smaller fetch payload, no densification).
  sparse::Csr sparse_batch;
  if (app.has_sparse_input()) sparse_batch = app.sparse_input_batch(problems);

  AppEvaluation ev;
  std::size_t hits = 0;
  for (std::size_t idx = 0; idx < problems.size(); ++idx) {
    const std::size_t p = problems[idx];
    const apps::RegionRun exact = app.run_region(p);
    const double other = app.other_part_seconds(p);

    std::vector<double> outputs;
    std::uint64_t input_bytes = 0;
    if (app.has_sparse_input()) {
      // The sparse path only ships the compressed bytes to the device — the
      // temporal/spatial saving §4.2 claims for the embedding-style first
      // layer.
      const sparse::Csr x = csr_row(sparse_batch, idx);
      input_bytes = x.bytes();
      const Tensor reduced = has_encoder ? model.encoder->encode_sparse(x) : x.to_dense();
      const Tensor pred = model.surrogate.predict(reduced);
      outputs.assign(pred.row(0).begin(), pred.row(0).end());
    } else {
      const std::vector<double> features = app.input_features(p);
      input_bytes = sizeof(double) * features.size();
      outputs = model.infer(features);
    }
    const RequestPhases phases =
        device.phases(encode_ops, infer_ops, has_encoder, int8, 1, input_bytes, outputs.size());

    const double err = app.qoi_error(p, exact.outputs, outputs);
    const bool hit = err <= opts.mu;
    if (hit) ++hits;
    ev.mean_qoi_error += err;

    ev.exact_seconds += exact.region_seconds + other;
    double surr = phases.total() + other;
    if (!hit && opts.fallback_on_miss) {
      // §7.1: the application restarts and runs the original code region.
      surr += exact.region_seconds;
      if (opts.stats != nullptr) opts.stats->record_qoi_fallback();
    }
    ev.surrogate_seconds += surr;

    if (opts.stats != nullptr) opts.stats->record_request(phases);

    ev.breakdown.fetch += phases.fetch;
    ev.breakdown.encode += phases.encode;
    ev.breakdown.load += phases.load;
    ev.breakdown.run += phases.run;
  }

  ev.hit_rate = static_cast<double>(hits) / static_cast<double>(problems.size());
  ev.mean_qoi_error /= static_cast<double>(problems.size());
  ev.speedup = ev.exact_seconds / std::max(ev.surrogate_seconds, 1e-12);
  return ev;
}

}  // namespace ahn::core
