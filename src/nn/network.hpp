#pragma once
// Sequential network container with reverse-mode backprop, a sparse-input
// fast path (CSR first layer, §4.2's "embedding API" equivalent) and
// gradient-checkpointed training (§4.2's memory-limited offline training).

#include <iosfwd>
#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "sparse/formats.hpp"

namespace ahn::nn {

struct QuantizationOptions;  // nn/quantization.hpp

class Network {
 public:
  Network() = default;
  Network(const Network& other) { *this = other; }
  Network& operator=(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Inference pass (no caching).
  [[nodiscard]] Tensor predict(const Tensor& x) const;

  /// Inference with a CSR batch: the first layer must be dense; its matmul
  /// runs directly on the sparse rows (no densification).
  [[nodiscard]] Tensor predict_sparse(const sparse::Csr& x) const;

  /// Inference through layers [begin, end) only. Lets the autoencoder run
  /// its encoder half (or decoder half) of one jointly-trained network.
  [[nodiscard]] Tensor predict_range(const Tensor& x, std::size_t begin,
                                     std::size_t end) const;

  /// Sparse-input variant of predict_range starting at layer 0 (the sparse
  /// fast path applies to the first dense layer only).
  [[nodiscard]] Tensor predict_sparse_range(const sparse::Csr& x, std::size_t end) const;

  /// Training forward (caches activations inside layers).
  Tensor forward(const Tensor& x, bool training);

  /// Backprop from an output gradient; accumulates parameter gradients. The
  /// gradient with respect to the network's input is never computed.
  void backward(const Tensor& grad_out);

  /// One optimizer step over a batch; returns the batch loss. When
  /// `checkpoint_segments > 1`, uses gradient checkpointing: only segment
  /// boundary activations stay resident and each segment's forward pass is
  /// recomputed during backward (trading compute for memory, Chen et al.).
  double train_batch(const Tensor& x, const Tensor& y, LossKind loss, Optimizer& opt,
                     std::size_t checkpoint_segments = 1);

  /// Sparse-input training batch (first layer dense; same semantics).
  double train_batch_sparse(const sparse::Csr& x, const Tensor& y, LossKind loss,
                            Optimizer& opt);

  /// Mutable parameter views. Taking them signals intent to mutate: dense
  /// layers drop their calibrated int8 payloads (stale codes must never
  /// serve new weights). Use const_params() for read-only access.
  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  [[nodiscard]] std::vector<const Tensor*> const_params() const;
  [[nodiscard]] std::size_t param_count() const;

  /// Analytic inference cost for a batch (drives the accelerator model).
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const;

  /// Bytes of activations held resident during a training forward pass, for
  /// plain vs checkpointed training (used by tests and the memory bench).
  [[nodiscard]] std::size_t activation_bytes_plain(std::size_t batch,
                                                   std::size_t in_features) const;
  [[nodiscard]] std::size_t activation_bytes_checkpointed(std::size_t batch,
                                                          std::size_t in_features,
                                                          std::size_t segments) const;

  /// Switches every dense layer holding a quantized payload to `p`; returns
  /// how many layers switched. kInt8 is a no-op for layers never calibrated
  /// (they keep serving fp32 — a partially-quantized net is still valid).
  std::size_t set_precision(Precision p);

  /// kInt8 iff at least one dense layer currently serves int8.
  [[nodiscard]] Precision precision() const noexcept;

  [[nodiscard]] std::string describe() const;

  /// Text serialization (architecture is NOT serialized — weights only; the
  /// loader must already hold an identically-shaped network). Saving never
  /// perturbs serving state; loading invalidates any calibrated int8
  /// payloads (they encoded the old weights) and — when a calibration batch
  /// was retained — rebuilds them for the new weights through the exact
  /// install code path, so the result is bitwise-identical to a fresh
  /// quantize_network call.
  void save_weights(std::ostream& os) const;
  void load_weights(std::istream& is);

  /// Opt-in auto-requantization after load_weights:
  /// quantize_network(.., retain_calibration=true) parks its calibration
  /// batch + options here. Null `calib` clears retention.
  void retain_calibration(std::shared_ptr<const Tensor> calib,
                          std::shared_ptr<const QuantizationOptions> opts);
  [[nodiscard]] bool has_retained_calibration() const noexcept {
    return retained_calib_ != nullptr;
  }

  void clear_caches();

 private:
  [[nodiscard]] double backprop_from(const Tensor& pred, const Tensor& y, LossKind loss,
                                     Optimizer& opt);

  std::vector<std::unique_ptr<Layer>> layers_;
  // Retained quantization calibration (immutable, shared across copies).
  std::shared_ptr<const Tensor> retained_calib_;
  std::shared_ptr<const QuantizationOptions> retained_quant_opts_;
};

}  // namespace ahn::nn
