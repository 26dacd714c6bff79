#pragma once
// Comparator searchers:
//
//  * AutokerasLike — the paper's Autokeras baseline (§7.2): a single-level
//    Bayesian architecture search on the FULL (dense) input. It optimizes
//    validation loss only — no feature reduction, no inference-time
//    objective, no application-quality constraint — which is exactly why it
//    produces slow models on high-dimensional sparse inputs.
//  * GridSearch — the traditional search the paper compares Bayesian
//    optimization against (§7.2, "Effectiveness of Bayesian Optimization").
//  * FlatJointNas — the ablation of Algorithm 2: one BO over the
//    concatenated (K, theta) vector, quantifying what the hierarchical
//    separation buys.

#include "nas/two_d_nas.hpp"

namespace ahn::nas {

struct AutokerasOptions {
  std::size_t iterations = 8;
  std::size_t bayesian_init = 3;
  /// Candidates proposed per BO round (constant-liar batch), trained as
  /// whole tasks on the caller's team. The same eval_batch gives the same
  /// search at any team budget (per-candidate Rng forks drafted in order).
  std::size_t eval_batch = 1;
};

class AutokerasLike {
 public:
  explicit AutokerasLike(AutokerasOptions options) : options_(options) {}

  /// Searches on the raw full-width features; quality_error / f_c of the
  /// returned pipeline are filled in afterwards for reporting only.
  [[nodiscard]] NasResult search(const SearchTask& task) const;

 private:
  AutokerasOptions options_;
};

/// Grid cells are embarrassingly parallel and train as whole tasks on the
/// caller's team: every cell's Rng is forked up front in (layers, units)
/// order and results are collected in that same order, so every team budget
/// picks the identical best model.
struct GridSearchOptions {
  std::vector<std::size_t> layer_grid{1, 2, 3, 4};
  std::vector<std::size_t> unit_grid{16, 32, 64, 128};
};

class GridSearch {
 public:
  explicit GridSearch(GridSearchOptions options) : options_(std::move(options)) {}

  [[nodiscard]] NasResult search(const SearchTask& task) const;

 private:
  GridSearchOptions options_;
};

struct FlatJointOptions {
  std::size_t iterations = 12;
  std::size_t bayesian_init = 4;
  std::size_t k_min = 4;
  std::size_t k_max = 64;
  std::size_t ae_epochs = 40;
};

class FlatJointNas {
 public:
  explicit FlatJointNas(FlatJointOptions options) : options_(options) {}

  [[nodiscard]] NasResult search(const SearchTask& task) const;

 private:
  FlatJointOptions options_;
};

}  // namespace ahn::nas
