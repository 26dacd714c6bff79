#pragma once
// Framework configuration — the user-facing knob surface of Table 1, plus
// the reproduction's workload-scale knobs. Parsed from key=value strings so
// benches and examples can override from the command line.

#include <cstdint>
#include <string>
#include <vector>

#include "nas/two_d_nas.hpp"
#include "nn/topology.hpp"

namespace ahn::core {

struct Config {
  // ----- search-level (Table 1) -----
  nas::SearchType search_type = nas::SearchType::Autokeras;  ///< -searchType
  std::size_t bayesian_init = 3;     ///< -bayesianInit
  double encoding_loss = 0.25;       ///< -encodingLoss (Eqn-1 bound)
  double quality_loss = 0.1;         ///< -qualityLoss (epsilon on f_e)
  std::size_t outer_iterations = 3;  ///< outer-BO budget (K search)
  std::size_t inner_iterations = 5;  ///< inner-BO budget (theta search)
  std::size_t k_min = 4;
  std::size_t k_max = 48;
  std::size_t ae_epochs = 30;
  /// Inner-BO proposal batch width (-searchWorkers, sets
  /// NasOptions::eval_batch): values above 1 propose and train that many
  /// candidates per round, which changes the search. The threads that train
  /// a batch come from the OpenMP team budget, not from this value.
  std::size_t search_workers = 1;

  // ----- model-level (Table 1) -----
  nn::ModelKind init_model = nn::ModelKind::Mlp;  ///< -initModel
  bool preprocessing = true;                      ///< -preprocessing
  std::size_t num_epoch = 120;                    ///< -numEpoch (search-time proxy)
  std::size_t retrain_epochs = 250;               ///< final retraining of the winner
  double train_ratio = 0.8;                       ///< -trainRatio
  std::size_t batch_size = 32;                    ///< -batchSize
  double lr = 2e-3;                               ///< -lr

  // ----- data acquisition / evaluation scale -----
  std::size_t train_problems = 0;    ///< 0 = use the app's recommendation
  std::size_t valid_problems = 20;   ///< problems driving f_e inside the search
  std::size_t eval_problems = 60;    ///< held-out problems for speedup/HitRate
  double mu = 0.1;                   ///< Eqn-3 acceptance bound
  std::uint64_t seed = 42;

  /// Applies one "key=value" override; throws on unknown keys/bad values.
  void apply(const std::string& assignment);

  /// Applies argv-style overrides (each "key=value").
  static Config from_args(int argc, const char* const* argv);

  [[nodiscard]] nas::NasOptions nas_options() const;
  [[nodiscard]] nn::TrainOptions train_options() const;
};

}  // namespace ahn::core
