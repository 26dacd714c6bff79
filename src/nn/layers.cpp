#include "nn/layer.hpp"

#include <cmath>
#include <sstream>

#include "common/parallel.hpp"
#include "nn/quantization.hpp"
#include "tensor/ops.hpp"
#include "tensor/quantize.hpp"

namespace ahn::nn {

const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

const char* activation_name(Activation a) noexcept {
  switch (a) {
    case Activation::Identity: return "identity";
    case Activation::Relu: return "relu";
    case Activation::Tanh: return "tanh";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::LeakyRelu: return "leaky_relu";
  }
  return "?";
}

double activate(Activation a, double x) noexcept {
  switch (a) {
    case Activation::Identity: return x;
    case Activation::Relu: return x > 0.0 ? x : 0.0;
    case Activation::Tanh: return std::tanh(x);
    case Activation::Sigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::LeakyRelu: return x > 0.0 ? x : 0.01 * x;
  }
  return x;
}

double activate_grad(Activation a, double x, double fx) noexcept {
  switch (a) {
    case Activation::Identity: return 1.0;
    case Activation::Relu: return x > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: return 1.0 - fx * fx;
    case Activation::Sigmoid: return fx * (1.0 - fx);
    case Activation::LeakyRelu: return x > 0.0 ? 1.0 : 0.01;
  }
  return 1.0;
}

// ---------------------------------------------------------------- Dense

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Rng& rng)
    : in_(in), out_(out),
      w_(Tensor::randn({in, out}, rng, std::sqrt(2.0 / static_cast<double>(in)))),
      b_(Tensor::zeros({out})),
      gw_(Tensor::zeros({in, out})),
      gb_(Tensor::zeros({out})) {
  AHN_CHECK(in > 0 && out > 0);
}

Tensor DenseLayer::forward(const Tensor& x, bool training) {
  AHN_CHECK_MSG(x.cols() == in_, "dense: got " << x.cols() << " features, want " << in_);
  if (!training && precision_ == Precision::kInt8 &&
      ops::kernel_is_int8(quant_->kernel)) {
    // Quantized serving path: static calibrated activation params + a kernel
    // choice resolved at install time, so each output row is a pure function
    // of its input row — bitwise identical at any batch size.
    const std::size_t m = x.rows();
    std::vector<std::int16_t> x16(m * in_);
    quant::quantize(x.flat(), quant_->in_q, x16.data());
    Tensor y({m, out_});
    const auto kind = quant_->kernel == ops::KernelChoice::kInt8Row
                          ? quant::Int8Kernel::Row
                          : quant::Int8Kernel::Dot;
    quant::i8_gemm(kind, m, out_, in_, x16.data(), quant_->wt16.data(),
                   quant_->w16.data(), quant_->wt_colsum.data(), quant_->in_q,
                   quant_->w_q, b_.data(), ops::EpilogueAct::None, y.flat().data());
    FlopCounter::instance().add(
        {/*flops=*/2ULL * m * out_ * in_ + m * (in_ + out_),
         /*bytes_read=*/m * in_ * (sizeof(double) + sizeof(std::int16_t)) +
             out_ * (sizeof(std::int16_t) * in_ + sizeof(double) * 2),
         /*bytes_written=*/sizeof(double) * m * out_ + sizeof(std::int16_t) * m * in_});
    return y;
  }
  AHN_CHECK_MSG(!(training && precision_ == Precision::kInt8),
                "int8 layers cannot train; set_precision(kFp32) first");
  if (training) x_cache_ = x;
  // Bias fused into the GEMM write-back; activation stays a separate layer.
  return ops::matmul_epilogue(x, w_, &b_, ops::EpilogueAct::None);
}

void DenseLayer::set_quantized(std::shared_ptr<const QuantizedDense> q) {
  AHN_CHECK(q != nullptr && q->in == in_ && q->out == out_);
  quant_ = std::move(q);
  precision_ = Precision::kInt8;
}

void DenseLayer::set_precision(Precision p) {
  AHN_CHECK_MSG(p != Precision::kInt8 || quant_ != nullptr,
                "set_precision(kInt8) before set_quantized");
  precision_ = p;
}

void DenseLayer::backward_params(const Tensor& grad_out) {
  AHN_CHECK_MSG(!x_cache_.empty(), "dense backward without cached forward input");
  // dW += X^T G ; db += column-sum(G)
  Tensor gw = ops::matmul_tn(x_cache_, grad_out);
  ops::axpy(1.0, gw, gw_);
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const auto row = grad_out.row(r);
    for (std::size_t c = 0; c < out_; ++c) gb_[c] += row[c];
  }
}

Tensor DenseLayer::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  return ops::matmul_nt(grad_out, w_);  // dX = G W^T
}

OpCounts DenseLayer::inference_cost(std::size_t batch) const {
  OpCounts c;
  c.flops = 2ULL * batch * in_ * out_ + batch * out_;
  if (precision_ == Precision::kInt8 && quant_ != nullptr &&
      ops::kernel_is_int8(quant_->kernel)) {
    // Quantize pass over the input, then 2-byte weight/activation streams
    // (int8-valued codes in int16 storage; see tensor/quantize.hpp).
    c.flops += batch * in_;
    c.bytes_read = batch * in_ * (sizeof(double) + sizeof(std::int16_t)) +
                   sizeof(std::int16_t) * in_ * out_ + sizeof(double) * 2 * out_;
    c.bytes_written =
        sizeof(double) * batch * out_ + sizeof(std::int16_t) * batch * in_;
    return c;
  }
  c.bytes_read = sizeof(double) * (batch * in_ + in_ * out_ + out_);
  c.bytes_written = sizeof(double) * batch * out_;
  return c;
}

std::string DenseLayer::describe() const {
  std::ostringstream os;
  os << "dense(" << in_ << "->" << out_ << ")";
  if (precision_ == Precision::kInt8) {
    os << "[int8/" << ops::kernel_choice_name(quant_->kernel) << "]";
  }
  return os.str();
}

std::unique_ptr<Layer> DenseLayer::clone() const {
  auto c = std::unique_ptr<DenseLayer>(new DenseLayer(*this));
  c->clear_cache();
  return c;
}

// ---------------------------------------------------------------- Activation

Tensor ActivationLayer::forward(const Tensor& x, bool training) {
  last_features_.store(x.cols(), std::memory_order_relaxed);
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = activate(act_, x[i]);
  if (training) {
    x_cache_ = x;
    y_cache_ = y;
  }
  OpCounts c;
  c.flops = x.size();
  FlopCounter::instance().add(c);
  return y;
}

Tensor ActivationLayer::backward(const Tensor& grad_out) {
  AHN_CHECK(!x_cache_.empty());
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= activate_grad(act_, x_cache_[i], y_cache_[i]);
  }
  return g;
}

OpCounts ActivationLayer::inference_cost(std::size_t batch) const {
  const std::size_t features = last_features_.load(std::memory_order_relaxed);
  OpCounts c;
  c.flops = batch * features;
  c.bytes_read = sizeof(double) * batch * features;
  c.bytes_written = sizeof(double) * batch * features;
  return c;
}

std::string ActivationLayer::describe() const {
  return std::string(activation_name(act_));
}

// ---------------------------------------------------------------- Dropout

Tensor DropoutLayer::forward(const Tensor& x, bool training) {
  if (!training || rate_ == 0.0) return x;
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const double keep = 1.0 - rate_;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double m = rng_.bernoulli(keep) ? 1.0 / keep : 0.0;
    mask_[i] = m;
    y[i] *= m;
  }
  return y;
}

Tensor DropoutLayer::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  return ops::hadamard(grad_out, mask_);
}

std::string DropoutLayer::describe() const {
  std::ostringstream os;
  os << "dropout(" << rate_ << ")";
  return os.str();
}

std::unique_ptr<Layer> DropoutLayer::clone() const {
  Rng fresh = rng_;
  auto c = std::make_unique<DropoutLayer>(rate_, fresh);
  return c;
}

// ---------------------------------------------------------------- Conv1d

Conv1dLayer::Conv1dLayer(std::size_t in_channels, std::size_t out_channels,
                         std::size_t kernel, std::size_t length, Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels), kernel_(kernel),
      length_(length),
      w_(Tensor::randn({out_channels, in_channels, kernel}, rng,
                       std::sqrt(2.0 / static_cast<double>(in_channels * kernel)))),
      b_(Tensor::zeros({out_channels})),
      gw_(Tensor::zeros({out_channels, in_channels, kernel})),
      gb_(Tensor::zeros({out_channels})) {
  AHN_CHECK(kernel % 2 == 1);  // "same" padding needs odd kernels
  AHN_CHECK(in_channels > 0 && out_channels > 0 && length > 0);
}

Tensor Conv1dLayer::forward(const Tensor& x, bool training) {
  AHN_CHECK_MSG(x.cols() == in_channels_ * length_,
                "conv1d: got " << x.cols() << " features, want "
                               << in_channels_ * length_);
  if (training) x_cache_ = x;
  const std::size_t batch = x.rows();
  const std::size_t pad = kernel_ / 2;
  Tensor y({batch, out_channels_ * length_});
  const std::size_t row_work = out_channels_ * length_ * in_channels_ * kernel_;
  parallel_for(batch * row_work, batch, [&](std::size_t n) {
    const double* xi = x.data() + n * in_channels_ * length_;
    double* yo = y.data() + n * out_channels_ * length_;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      for (std::size_t t = 0; t < length_; ++t) {
        double s = b_[oc];
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          const double* wrow = w_.data() + (oc * in_channels_ + ic) * kernel_;
          const double* xrow = xi + ic * length_;
          for (std::size_t k = 0; k < kernel_; ++k) {
            const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t + k) -
                                       static_cast<std::ptrdiff_t>(pad);
            if (src >= 0 && src < static_cast<std::ptrdiff_t>(length_)) {
              s += wrow[k] * xrow[src];
            }
          }
        }
        yo[oc * length_ + t] = s;
      }
    }
  });
  FlopCounter::instance().add(inference_cost(batch));
  return y;
}

Tensor Conv1dLayer::accumulate_grads(const Tensor& grad_out, bool input_grad) {
  AHN_CHECK(!x_cache_.empty());
  const std::size_t batch = x_cache_.rows();
  const std::size_t pad = kernel_ / 2;
  Tensor gx = input_grad ? Tensor({batch, in_channels_ * length_}) : Tensor();
  for (std::size_t n = 0; n < batch; ++n) {
    const double* xi = x_cache_.data() + n * in_channels_ * length_;
    const double* go = grad_out.data() + n * out_channels_ * length_;
    double* gxi = input_grad ? gx.data() + n * in_channels_ * length_ : nullptr;
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      for (std::size_t t = 0; t < length_; ++t) {
        const double g = go[oc * length_ + t];
        gb_[oc] += g;
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          double* gwrow = gw_.data() + (oc * in_channels_ + ic) * kernel_;
          const double* wrow = w_.data() + (oc * in_channels_ + ic) * kernel_;
          for (std::size_t k = 0; k < kernel_; ++k) {
            const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t + k) -
                                       static_cast<std::ptrdiff_t>(pad);
            if (src >= 0 && src < static_cast<std::ptrdiff_t>(length_)) {
              gwrow[k] += g * xi[ic * length_ + src];
              if (gxi != nullptr) gxi[ic * length_ + src] += g * wrow[k];
            }
          }
        }
      }
    }
  }
  return gx;
}

void Conv1dLayer::backward_params(const Tensor& grad_out) {
  (void)accumulate_grads(grad_out, false);
}

Tensor Conv1dLayer::backward(const Tensor& grad_out) {
  return accumulate_grads(grad_out, true);
}

OpCounts Conv1dLayer::inference_cost(std::size_t batch) const {
  OpCounts c;
  c.flops = 2ULL * batch * out_channels_ * length_ * in_channels_ * kernel_;
  c.bytes_read = sizeof(double) * (batch * in_channels_ * length_ + w_.size() + b_.size());
  c.bytes_written = sizeof(double) * batch * out_channels_ * length_;
  return c;
}

std::string Conv1dLayer::describe() const {
  std::ostringstream os;
  os << "conv1d(c" << in_channels_ << "->c" << out_channels_ << ",k" << kernel_
     << ",L" << length_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Conv1dLayer::clone() const {
  auto c = std::unique_ptr<Conv1dLayer>(new Conv1dLayer(*this));
  c->clear_cache();
  return c;
}

// ---------------------------------------------------------------- MaxPool1d

MaxPool1dLayer::MaxPool1dLayer(std::size_t channels, std::size_t length,
                               std::size_t window)
    : channels_(channels), length_(length), window_(window) {
  AHN_CHECK(window >= 1 && length % window == 0);
}

Tensor MaxPool1dLayer::forward(const Tensor& x, bool training) {
  AHN_CHECK(x.cols() == channels_ * length_);
  const std::size_t batch = x.rows();
  const std::size_t out_len = length_ / window_;
  Tensor y({batch, channels_ * out_len});
  // batch_/argmax_ exist solely for backward; inference must not touch
  // member state so concurrent predict() calls on a shared network are safe.
  if (training) {
    batch_ = batch;
    argmax_.assign(batch * channels_ * out_len, 0);
  }
  for (std::size_t n = 0; n < batch; ++n) {
    const double* xi = x.data() + n * channels_ * length_;
    double* yo = y.data() + n * channels_ * out_len;
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t o = 0; o < out_len; ++o) {
        std::size_t best = c * length_ + o * window_;
        double bv = xi[best];
        for (std::size_t k = 1; k < window_; ++k) {
          const std::size_t idx = c * length_ + o * window_ + k;
          if (xi[idx] > bv) {
            bv = xi[idx];
            best = idx;
          }
        }
        yo[c * out_len + o] = bv;
        if (training) argmax_[(n * channels_ + c) * out_len + o] = best;
      }
    }
  }
  return y;
}

Tensor MaxPool1dLayer::backward(const Tensor& grad_out) {
  AHN_CHECK(!argmax_.empty());
  const std::size_t out_len = length_ / window_;
  Tensor gx({batch_, channels_ * length_});
  for (std::size_t n = 0; n < batch_; ++n) {
    const double* go = grad_out.data() + n * channels_ * out_len;
    double* gxi = gx.data() + n * channels_ * length_;
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t o = 0; o < out_len; ++o) {
        gxi[argmax_[(n * channels_ + c) * out_len + o]] += go[c * out_len + o];
      }
    }
  }
  return gx;
}

OpCounts MaxPool1dLayer::inference_cost(std::size_t batch) const {
  OpCounts c;
  c.flops = batch * channels_ * length_;  // comparisons counted as ops
  c.bytes_read = sizeof(double) * batch * channels_ * length_;
  c.bytes_written = sizeof(double) * batch * channels_ * (length_ / window_);
  return c;
}

std::string MaxPool1dLayer::describe() const {
  std::ostringstream os;
  os << "maxpool1d(c" << channels_ << ",w" << window_ << ")";
  return os.str();
}

// ---------------------------------------------------------------- Upsample1d

Upsample1dLayer::Upsample1dLayer(std::size_t channels, std::size_t length,
                                 std::size_t factor)
    : channels_(channels), length_(length), factor_(factor) {
  AHN_CHECK(factor >= 1);
}

Tensor Upsample1dLayer::forward(const Tensor& x, bool /*training*/) {
  AHN_CHECK(x.cols() == channels_ * length_);
  const std::size_t batch = x.rows();
  const std::size_t out_len = length_ * factor_;
  Tensor y({batch, channels_ * out_len});
  for (std::size_t n = 0; n < batch; ++n) {
    const double* xi = x.data() + n * channels_ * length_;
    double* yo = y.data() + n * channels_ * out_len;
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t t = 0; t < length_; ++t) {
        for (std::size_t f = 0; f < factor_; ++f) {
          yo[c * out_len + t * factor_ + f] = xi[c * length_ + t];
        }
      }
    }
  }
  return y;
}

Tensor Upsample1dLayer::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.rows();
  const std::size_t out_len = length_ * factor_;
  AHN_CHECK(grad_out.cols() == channels_ * out_len);
  Tensor gx({batch, channels_ * length_});
  for (std::size_t n = 0; n < batch; ++n) {
    const double* go = grad_out.data() + n * channels_ * out_len;
    double* gxi = gx.data() + n * channels_ * length_;
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t t = 0; t < length_; ++t) {
        double s = 0.0;
        for (std::size_t f = 0; f < factor_; ++f) s += go[c * out_len + t * factor_ + f];
        gxi[c * length_ + t] = s;
      }
    }
  }
  return gx;
}

OpCounts Upsample1dLayer::inference_cost(std::size_t batch) const {
  OpCounts c;
  c.bytes_read = sizeof(double) * batch * channels_ * length_;
  c.bytes_written = sizeof(double) * batch * channels_ * length_ * factor_;
  return c;
}

std::string Upsample1dLayer::describe() const {
  std::ostringstream os;
  os << "upsample1d(c" << channels_ << ",x" << factor_ << ")";
  return os.str();
}

// ---------------------------------------------------------------- Residual

ResidualLayer::ResidualLayer(std::vector<std::unique_ptr<Layer>> body)
    : body_(std::move(body)) {
  AHN_CHECK(!body_.empty());
}

Tensor ResidualLayer::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (auto& l : body_) y = l->forward(y, training);
  AHN_CHECK_MSG(y.cols() == x.cols(), "residual body must preserve feature count");
  return ops::add(y, x);
}

Tensor ResidualLayer::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = body_.rbegin(); it != body_.rend(); ++it) g = (*it)->backward(g);
  return ops::add(g, grad_out);
}

std::vector<Tensor*> ResidualLayer::params() {
  std::vector<Tensor*> out;
  for (auto& l : body_) {
    for (Tensor* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<const Tensor*> ResidualLayer::const_params() const {
  std::vector<const Tensor*> out;
  for (const auto& l : body_) {
    for (const Tensor* p : l->const_params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ResidualLayer::grads() {
  std::vector<Tensor*> out;
  for (auto& l : body_) {
    for (Tensor* g : l->grads()) out.push_back(g);
  }
  return out;
}

OpCounts ResidualLayer::inference_cost(std::size_t batch) const {
  OpCounts c;
  for (const auto& l : body_) c += l->inference_cost(batch);
  return c;
}

std::string ResidualLayer::describe() const {
  std::string s = "residual[";
  for (std::size_t i = 0; i < body_.size(); ++i) {
    if (i) s += ",";
    s += body_[i]->describe();
  }
  s += "]";
  return s;
}

std::unique_ptr<Layer> ResidualLayer::clone() const {
  std::vector<std::unique_ptr<Layer>> body;
  body.reserve(body_.size());
  for (const auto& l : body_) body.push_back(l->clone());
  return std::make_unique<ResidualLayer>(std::move(body));
}

void ResidualLayer::clear_cache() {
  for (auto& l : body_) l->clear_cache();
}

}  // namespace ahn::nn
