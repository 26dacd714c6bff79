#pragma once
// The Auto-HPCnet end-to-end workflow (Fig. 1): data acquisition ->
// customized autoencoder + 2D NAS -> deployment -> evaluation, with
// per-phase offline timing (the §7.3 overhead analysis).

#include <memory>

#include "apps/application.hpp"
#include "core/config.hpp"
#include "core/evaluation.hpp"
#include "nas/two_d_nas.hpp"

namespace ahn::core {

struct OfflineReport {
  double sample_generation_seconds = 0.0;  ///< data acquisition (§3)
  double search_seconds = 0.0;             ///< hierarchical BO (§5)
  double autoencoder_seconds = 0.0;        ///< AE training inside the BO (§4)

  [[nodiscard]] double total() const noexcept {
    return sample_generation_seconds + search_seconds;
    // autoencoder_seconds is included in search_seconds (it runs inside the
    // outer BO loop); it is reported separately for the §7.3 breakdown.
  }
};

/// Everything the framework produced for one application.
struct PipelineResult {
  nas::PipelineModel model;
  nas::NasResult search;
  OfflineReport offline;
  AppEvaluation evaluation;
  std::vector<std::size_t> eval_problems;
};

class AutoHPCnet {
 public:
  explicit AutoHPCnet(Config config) : config_(std::move(config)) {}

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Runs the full workflow on `app`: generates problems, acquires samples,
  /// searches, evaluates on held-out problems.
  [[nodiscard]] PipelineResult run(apps::Application& app) const;

  /// Data acquisition only (§3): runs the exact region over the training
  /// problems and assembles the (features -> outputs) dataset.
  [[nodiscard]] nn::Dataset acquire_samples(const apps::Application& app,
                                            std::span<const std::size_t> problems) const;

  /// Builds the search task for `app` (quality callback over validation
  /// problems, device model, Table-1 bounds, mu, and T_exact priced from the
  /// validation problems' exact runs). `sparse_storage` receives the
  /// CSR view when the app has sparse inputs and must outlive the task.
  [[nodiscard]] nas::SearchTask make_task(const apps::Application& app,
                                          nn::Dataset data,
                                          std::span<const std::size_t> valid_problems,
                                          std::shared_ptr<sparse::Csr>& sparse_storage) const;

 private:
  Config config_;
};

}  // namespace ahn::core
