#pragma once
// Dataset handling and the surrogate training loop. Exposes the model-level
// knobs of Table 1: preprocessing, numEpoch, trainRatio, batchSize, lr.

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/network.hpp"

namespace ahn::nn {

/// Stacks single-row tensors (rank-1, or rank-2 with one row) into one
/// (N x F) row-major batch. All rows must share a width. This is the packing
/// step of the serving runtime's micro-batching path.
[[nodiscard]] Tensor pack_rows(std::span<const Tensor> rows);

/// In-memory supervised dataset: rows of (input features, output features).
struct Dataset {
  Tensor x;  ///< (samples x in_features)
  Tensor y;  ///< (samples x out_features)

  [[nodiscard]] std::size_t size() const { return x.rows(); }
  [[nodiscard]] std::size_t in_features() const { return x.cols(); }
  [[nodiscard]] std::size_t out_features() const { return y.cols(); }

  /// Row subset by index list.
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& rows) const;

  /// Copies the listed rows into `out`, which must already have the right
  /// shape (rows.size() x in/out features). The allocation-free counterpart
  /// of subset() that the training loop uses to reuse one batch buffer
  /// across every step.
  void gather_rows(std::span<const std::size_t> rows, Dataset& out) const;

  /// Shuffled train/validation split; ratio = train fraction (Table 1
  /// trainRatio). Both halves non-empty for any 0 < ratio < 1.
  [[nodiscard]] std::pair<Dataset, Dataset> split(double ratio, Rng& rng) const;
};

/// Per-feature affine standardization fitted on training data
/// (Table 1 "preprocessing"). Near-constant features get unit scale.
class Normalizer {
 public:
  static Normalizer fit(const Tensor& data);

  [[nodiscard]] Tensor apply(const Tensor& data) const;
  [[nodiscard]] Tensor invert(const Tensor& data) const;

  [[nodiscard]] std::size_t features() const noexcept { return mean_.size(); }

 private:
  std::vector<double> mean_, scale_;
};

struct TrainOptions {
  std::size_t epochs = 40;             ///< numEpoch
  std::size_t batch_size = 32;         ///< batchSize
  double lr = 1e-3;                    ///< lr
  double train_ratio = 0.8;            ///< trainRatio
  LossKind loss = LossKind::Mse;
  bool standardize = true;             ///< preprocessing
  std::size_t checkpoint_segments = 1; ///< >1 enables gradient checkpointing
  std::size_t patience = 12;           ///< early stop on stagnant val loss
  std::uint64_t seed = 1;
};

struct TrainResult {
  double train_loss = 0.0;   ///< final epoch training loss
  double val_loss = 0.0;     ///< best validation loss
  std::size_t epochs_run = 0;
  std::vector<double> val_history;
};

/// Trains `net` in place on `data` and returns loss statistics. Input and
/// output standardization (when enabled) is fitted here and returned so the
/// deployed surrogate can apply the identical transform at inference.
struct TrainedSurrogate {
  Network net;
  std::optional<Normalizer> x_norm;
  std::optional<Normalizer> y_norm;
  TrainResult result;

  /// End-to-end prediction: normalize -> net -> denormalize.
  [[nodiscard]] Tensor predict(const Tensor& x) const;

  /// Batched serving entry point: packs N pending single-row requests and
  /// runs ONE normalize -> forward -> denormalize pass over the whole batch.
  /// Row i of the result is bitwise-identical to predict(rows[i]) because
  /// every kernel in the stack accumulates each output row independently in
  /// a fixed order; the batch only amortizes per-call overhead.
  [[nodiscard]] Tensor predict_rows(std::span<const Tensor> rows) const;
};

[[nodiscard]] TrainedSurrogate train_surrogate(Network net, const Dataset& data,
                                               const TrainOptions& opts);

/// Relative L2 error of predictions vs targets, one per sample (row).
[[nodiscard]] std::vector<double> row_relative_errors(const Tensor& pred,
                                                      const Tensor& target);

/// Mean of row_relative_errors — the model quality signal the NAS feeds
/// the Bayesian optimizer.
[[nodiscard]] double mean_relative_error(const Tensor& pred, const Tensor& target);

}  // namespace ahn::nn
