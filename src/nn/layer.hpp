#pragma once
// Layer abstraction for the from-scratch NN stack.
//
// The 2D NAS (src/nas) searches over topologies made of these layers; the
// paper's theta includes kernel sizes, channel counts, pooling/unpooling
// sizes and residual connections per layer (section 5.1), so all of those
// are implemented here alongside the plain dense (MLP) layers that form the
// default surrogate type (Table 1, initModel=MLP).
//
// Convention: activations flow as rank-2 tensors (batch x features). Conv
// and pooling layers interpret the feature axis as channels x length.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace ahn::nn {

struct QuantizedDense;  // nn/quantization.hpp

/// Numeric execution mode for inference. Training always runs fp32; a layer
/// switched to kInt8 serves through its calibrated QuantizedDense payload.
enum class Precision : std::uint8_t { kFp32 = 0, kInt8 };

[[nodiscard]] const char* precision_name(Precision p) noexcept;

/// Base class of all layers. Forward caches whatever backward needs; a layer
/// is therefore stateful per-batch (one in-flight batch at a time), which
/// matches how the training loop drives it.
class Layer {
 public:
  virtual ~Layer() = default;

  /// x: (batch x in_features) -> (batch x out_features).
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// grad wrt output -> grad wrt input; accumulates parameter gradients.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward() for the first layer of a network, whose input gradient no
  /// one reads: accumulates parameter gradients only. The default runs
  /// backward() and drops the input gradient.
  virtual void backward_params(const Tensor& grad_out) { (void)backward(grad_out); }

  /// Trainable parameter / gradient views (same order). Empty by default.
  /// Taking params() signals intent to MUTATE: layers deriving serving state
  /// from their weights (DenseLayer's calibrated int8 payload) invalidate it
  /// on the spot. Use const_params() for read-only access.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }
  /// Read-only parameter views in params() order; never invalidates.
  [[nodiscard]] virtual std::vector<const Tensor*> const_params() const { return {}; }

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t param_count() const {
    std::size_t n = 0;
    for (const Tensor* p : const_params()) n += p->size();
    return n;
  }

  /// Analytic cost of one inference pass at the given batch size; feeds the
  /// accelerator model that prices surrogate inference.
  [[nodiscard]] virtual OpCounts inference_cost(std::size_t batch) const = 0;

  [[nodiscard]] virtual std::size_t out_features(std::size_t in_features) const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;

  /// Deep copy including weights (used by search checkpointing).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Drops cached activations (between batches / after training).
  virtual void clear_cache() {}

  /// True when forward() is a pure function of its input. Gradient
  /// checkpointing recomputes forward passes, so it requires every layer to
  /// be deterministic (dropout is the one stochastic layer here).
  [[nodiscard]] virtual bool deterministic() const noexcept { return true; }
};

/// Supported pointwise nonlinearities.
enum class Activation { Identity, Relu, Tanh, Sigmoid, LeakyRelu };

[[nodiscard]] const char* activation_name(Activation a) noexcept;
[[nodiscard]] double activate(Activation a, double x) noexcept;
[[nodiscard]] double activate_grad(Activation a, double x, double fx) noexcept;

/// Fully connected layer: y = x W + b, with He/Xavier init by activation.
class DenseLayer final : public Layer {
 public:
  DenseLayer(std::size_t in, std::size_t out, Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override {
    note_weights_mutated();
    return {&w_, &b_};
  }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::vector<const Tensor*> const_params() const override { return {&w_, &b_}; }
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const override;
  [[nodiscard]] std::size_t out_features(std::size_t) const override { return out_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void clear_cache() override { x_cache_ = Tensor(); }

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] const Tensor& weights() const noexcept { return w_; }
  [[nodiscard]] Tensor& mutable_weights() noexcept {
    note_weights_mutated();
    return w_;
  }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }
  [[nodiscard]] Tensor& mutable_bias() noexcept {
    note_weights_mutated();
    return b_;
  }

  /// Installs a calibrated int8 payload (nn/quantization.hpp builds it) and
  /// switches inference to kInt8. The payload is immutable once installed —
  /// concurrent serving threads share it through the shared_ptr.
  void set_quantized(std::shared_ptr<const QuantizedDense> q);
  /// Switches execution mode. kInt8 requires an installed payload.
  void set_precision(Precision p);
  [[nodiscard]] Precision precision() const noexcept { return precision_; }
  [[nodiscard]] bool has_quantized() const noexcept { return quant_ != nullptr; }
  [[nodiscard]] const QuantizedDense* quantized() const noexcept { return quant_.get(); }
  /// Bumped on every mutable weight access (params() / mutable_weights() /
  /// mutable_bias()); lets callers and tests detect weight turnover.
  [[nodiscard]] std::uint64_t weights_generation() const noexcept {
    return weights_gen_;
  }

 private:
  /// Any mutable weight access invalidates a calibrated payload: int8 codes
  /// quantized from the old weights must never serve the new ones. A layer
  /// that was serving kInt8 falls back to fp32 until re-calibrated.
  void note_weights_mutated() noexcept {
    ++weights_gen_;
    if (quant_ != nullptr) {
      quant_.reset();
      if (precision_ == Precision::kInt8) precision_ = Precision::kFp32;
    }
  }

  std::size_t in_, out_;
  Tensor w_, b_, gw_, gb_;
  Tensor x_cache_;
  std::shared_ptr<const QuantizedDense> quant_;
  Precision precision_ = Precision::kFp32;
  std::uint64_t weights_gen_ = 0;
};

/// Pointwise activation layer.
class ActivationLayer final : public Layer {
 public:
  explicit ActivationLayer(Activation a) : act_(a) {}

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const override;
  [[nodiscard]] std::size_t out_features(std::size_t in) const override { return in; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ActivationLayer>(act_);
  }
  void clear_cache() override { x_cache_ = Tensor(); y_cache_ = Tensor(); }

  [[nodiscard]] Activation activation() const noexcept { return act_; }

 private:
  Activation act_;
  Tensor x_cache_, y_cache_;
  // Relaxed atomic: concurrent inference threads all store the same width,
  // and inference_cost may race with a forward on another thread.
  std::atomic<std::size_t> last_features_{0};
};

/// Inverted dropout (train-time only).
class DropoutLayer final : public Layer {
 public:
  DropoutLayer(double rate, Rng& rng) : rate_(rate), rng_(rng.fork()) {
    AHN_CHECK(rate >= 0.0 && rate < 1.0);
  }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] OpCounts inference_cost(std::size_t) const override { return {}; }
  [[nodiscard]] std::size_t out_features(std::size_t in) const override { return in; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void clear_cache() override { mask_ = Tensor(); }
  [[nodiscard]] bool deterministic() const noexcept override { return false; }

 private:
  double rate_;
  Rng rng_;
  Tensor mask_;
};

/// 1-D convolution over (channels x length) features with zero padding
/// ("same" output length). Stride 1; NAS tunes kernel size and out channels.
class Conv1dLayer final : public Layer {
 public:
  Conv1dLayer(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
              std::size_t length, Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&gw_, &gb_}; }
  std::vector<const Tensor*> const_params() const override { return {&w_, &b_}; }
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const override;
  [[nodiscard]] std::size_t out_features(std::size_t) const override {
    return out_channels_ * length_;
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void clear_cache() override { x_cache_ = Tensor(); }

 private:
  /// Accumulates gw_ and gb_ from grad_out and, when input_grad, returns the
  /// input gradient (else an empty tensor). gw_ and gb_ see the same order
  /// either way.
  Tensor accumulate_grads(const Tensor& grad_out, bool input_grad);

  std::size_t in_channels_, out_channels_, kernel_, length_;
  Tensor w_;  // (out_c x in_c x k) flattened
  Tensor b_;  // (out_c)
  Tensor gw_, gb_;
  Tensor x_cache_;
};

/// 1-D max pooling over (channels x length); length must divide by window.
class MaxPool1dLayer final : public Layer {
 public:
  MaxPool1dLayer(std::size_t channels, std::size_t length, std::size_t window);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const override;
  [[nodiscard]] std::size_t out_features(std::size_t) const override {
    return channels_ * (length_ / window_);
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool1dLayer>(channels_, length_, window_);
  }
  void clear_cache() override { argmax_.clear(); }

 private:
  std::size_t channels_, length_, window_;
  std::vector<std::size_t> argmax_;
  std::size_t batch_ = 0;
};

/// 1-D nearest-neighbour upsampling (the "unpooling" knob of theta).
class Upsample1dLayer final : public Layer {
 public:
  Upsample1dLayer(std::size_t channels, std::size_t length, std::size_t factor);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const override;
  [[nodiscard]] std::size_t out_features(std::size_t) const override {
    return channels_ * length_ * factor_;
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Upsample1dLayer>(channels_, length_, factor_);
  }

 private:
  std::size_t channels_, length_, factor_;
};

/// Residual wrapper: y = x + body(x). Requires body to preserve feature
/// count; the NAS emits it when the residual-connection knob is on.
class ResidualLayer final : public Layer {
 public:
  explicit ResidualLayer(std::vector<std::unique_ptr<Layer>> body);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::vector<const Tensor*> const_params() const override;
  [[nodiscard]] OpCounts inference_cost(std::size_t batch) const override;
  [[nodiscard]] std::size_t out_features(std::size_t in) const override { return in; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void clear_cache() override;

 private:
  std::vector<std::unique_ptr<Layer>> body_;
};

}  // namespace ahn::nn
