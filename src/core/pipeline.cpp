#include "core/pipeline.hpp"

#include <memory>
#include <numeric>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace ahn::core {

nn::Dataset AutoHPCnet::acquire_samples(const apps::Application& app,
                                        std::span<const std::size_t> problems) const {
  AHN_CHECK(!problems.empty());
  // Problems are independent exact runs (run_region is safe to call
  // concurrently) and each writes only its own row, so the samples are the
  // same bits at any team size.
  const std::size_t n = problems.size();
  nn::Dataset data;
  data.x = Tensor({n, app.input_dim()});
  data.y = Tensor({n, app.output_dim()});
  parallel_tasks(n, [&](std::size_t i) {
    const std::vector<double> feat = app.input_features(problems[i]);
    AHN_CHECK(feat.size() == app.input_dim());
    std::copy(feat.begin(), feat.end(), data.x.row(i).begin());
    const apps::RegionRun run = app.run_region(problems[i]);
    AHN_CHECK(run.outputs.size() == app.output_dim());
    std::copy(run.outputs.begin(), run.outputs.end(), data.y.row(i).begin());
  });
  return data;
}

nas::SearchTask AutoHPCnet::make_task(const apps::Application& app, nn::Dataset data,
                                      std::span<const std::size_t> valid_problems,
                                      std::shared_ptr<sparse::Csr>& sparse_storage) const {
  nas::SearchTask task;
  task.data = std::move(data);
  task.device = runtime::DeviceModel{};
  task.quality_bound = config_.quality_loss;
  task.mu = config_.mu;
  task.encoding_loss_bound = config_.encoding_loss;
  task.train = config_.train_options();
  task.space.allow_cnn = config_.init_model == nn::ModelKind::Cnn;
  task.seed = config_.seed;

  if (app.has_sparse_input()) {
    // CSR view of the training features for the sparse AE / NAS path.
    sparse_storage = std::make_shared<sparse::Csr>(
        sparse::Csr::from_dense(task.data.x, 0.0));
    task.sparse_x = sparse_storage.get();
  }

  // Cache exact outputs + features for the validation problems once; the
  // quality callback replays the candidate pipeline against them. The same
  // exact runs price T_exact: the mean modeled cost of the region's analytic
  // op counts on the device, never its wall time, so the search stays
  // deterministic (region_ops counts only the calling thread's kernels).
  auto cache = std::make_shared<std::vector<std::pair<std::vector<double>,
                                                      std::vector<double>>>>();
  cache->reserve(valid_problems.size());
  double exact_seconds = 0.0;
  for (std::size_t p : valid_problems) {
    apps::RegionRun run = app.run_region(p);
    exact_seconds +=
        task.device.kernel_seconds(run.region_ops, runtime::sparse_solver_profile());
    cache->emplace_back(app.input_features(p), std::move(run.outputs));
  }
  if (!valid_problems.empty()) {
    task.exact_seconds = exact_seconds / static_cast<double>(valid_problems.size());
  }
  const apps::Application* app_ptr = &app;
  const std::vector<std::size_t> valid(valid_problems.begin(), valid_problems.end());
  task.evaluate_quality = [cache, app_ptr, valid](const nas::PipelineModel& pm) {
    std::vector<double> errors(cache->size());
    for (std::size_t i = 0; i < cache->size(); ++i) {
      const auto& [features, exact] = (*cache)[i];
      errors[i] = app_ptr->qoi_error(valid[i], exact, pm.infer(features));
    }
    return errors;
  };
  return task;
}

PipelineResult AutoHPCnet::run(apps::Application& app) const {
  const std::size_t n_train = config_.train_problems > 0
                                  ? config_.train_problems
                                  : app.recommended_train_problems();
  const std::size_t total = n_train + config_.valid_problems + config_.eval_problems;
  app.generate_problems(total, config_.seed);

  std::vector<std::size_t> all(total);
  std::iota(all.begin(), all.end(), 0);
  const std::span<const std::size_t> train_ids(all.data(), n_train);
  const std::span<const std::size_t> valid_ids(all.data() + n_train,
                                               config_.valid_problems);
  const std::span<const std::size_t> eval_ids(all.data() + n_train + config_.valid_problems,
                                              config_.eval_problems);

  PipelineResult result;
  result.eval_problems.assign(eval_ids.begin(), eval_ids.end());

  // One trace per pipeline run: the phase spans below all nest under it, so
  // an exported trace shows sample-gen / search / retrain as siblings.
  obs::Tracer& tracer = obs::Tracer::global();
  const obs::Span pipeline_span(tracer, "offline.pipeline");

  // Phase 1: data acquisition (§3) — the trace-generation analogue.
  const Timer acq_timer;
  nn::Dataset data;
  {
    const obs::Span span(tracer, "offline.sample_generation");
    data = acquire_samples(app, train_ids);
  }
  result.offline.sample_generation_seconds = acq_timer.seconds();

  // Phase 2: hierarchical BO with the customized autoencoder (§4, §5).
  std::shared_ptr<sparse::Csr> sparse_storage;
  nas::SearchTask task = make_task(app, std::move(data), valid_ids, sparse_storage);
  const nas::TwoDNas searcher(config_.nas_options());
  {
    const obs::Span span(tracer, "offline.search");
    result.search = searcher.search(task);
  }
  result.offline.search_seconds = result.search.search_seconds;
  result.offline.autoencoder_seconds = result.search.autoencoder_train_seconds;
  result.model = result.search.best;

  // Phase 2b: the search trains candidates with a cheap proxy budget; give
  // the winning (K, theta) one long final training run before deployment.
  if (config_.retrain_epochs > config_.num_epoch &&
      result.model.surrogate.net.layer_count() > 0) {
    const obs::Span span(tracer, "offline.retrain");
    const Timer retrain_timer;
    task.train.epochs = config_.retrain_epochs;
    task.train.patience = 30;
    nn::Dataset reduced;
    if (result.model.encoder != nullptr) {
      reduced.x = task.sparse_x != nullptr
                      ? result.model.encoder->encode_sparse(*task.sparse_x)
                      : result.model.encoder->encode(task.data.x);
      reduced.y = task.data.y;
    } else {
      reduced = task.data;
    }
    Rng retrain_rng(config_.seed ^ 0x2e72a12ULL);
    nas::PipelineModel retrained = nas::evaluate_candidate(
        task, result.model.spec, result.model.encoder, reduced, retrain_rng);
    // Keep the retrained model only if it is at least as good on f_e.
    if (retrained.quality_error <= result.model.quality_error) {
      result.model = std::move(retrained);
    }
    result.offline.search_seconds += retrain_timer.seconds();
  }
  AHN_INFO_C("pipeline", app.name() << ": search done, feasible=" << result.search.found_feasible
                      << " f_e=" << result.model.quality_error
                      << " K=" << result.model.latent_k << " spec="
                      << result.model.spec.describe());

  // Phase 3: deployment + evaluation on held-out problems (§7.1).
  EvalOptions eopts;
  eopts.mu = config_.mu;
  result.evaluation = evaluate_pipeline(app, eval_ids, result.model, task.device, eopts);
  return result;
}

}  // namespace ahn::core
