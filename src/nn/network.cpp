#include "nn/network.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "nn/quantization.hpp"
#include "sparse/spmv.hpp"
#include "tensor/ops.hpp"

namespace ahn::nn {

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  retained_calib_ = other.retained_calib_;
  retained_quant_opts_ = other.retained_quant_opts_;
  return *this;
}

Tensor Network::predict(const Tensor& x) const {
  Tensor a = x;
  for (const auto& l : layers_) a = l->forward(a, /*training=*/false);
  return a;
}

Tensor Network::predict_sparse(const sparse::Csr& x) const {
  AHN_CHECK_MSG(!layers_.empty(), "empty network");
  auto* first = dynamic_cast<DenseLayer*>(layers_.front().get());
  AHN_CHECK_MSG(first != nullptr,
                "sparse input requires a dense first layer (sparse matmul path)");
  AHN_CHECK(x.cols() == first->in_features());
  // First layer: CSR * W + b, no densification of x.
  Tensor a = sparse::sparse_input_matmul(x, first->weights());
  ops::add_row_bias(a, first->bias());
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    a = layers_[i]->forward(a, /*training=*/false);
  }
  return a;
}

Tensor Network::predict_range(const Tensor& x, std::size_t begin, std::size_t end) const {
  AHN_CHECK(begin <= end && end <= layers_.size());
  Tensor a = x;
  for (std::size_t i = begin; i < end; ++i) a = layers_[i]->forward(a, false);
  return a;
}

Tensor Network::predict_sparse_range(const sparse::Csr& x, std::size_t end) const {
  AHN_CHECK(end >= 1 && end <= layers_.size());
  auto* first = dynamic_cast<DenseLayer*>(layers_.front().get());
  AHN_CHECK_MSG(first != nullptr, "sparse input requires a dense first layer");
  Tensor a = sparse::sparse_input_matmul(x, first->weights());
  ops::add_row_bias(a, first->bias());
  for (std::size_t i = 1; i < end; ++i) a = layers_[i]->forward(a, false);
  return a;
}

Tensor Network::forward(const Tensor& x, bool training) {
  Tensor a = x;
  for (auto& l : layers_) a = l->forward(a, training);
  return a;
}

void Network::backward(const Tensor& grad_out) {
  if (layers_.empty()) return;
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 1;) g = layers_[i]->backward(g);
  layers_.front()->backward_params(g);
}

double Network::backprop_from(const Tensor& pred, const Tensor& y, LossKind loss,
                              Optimizer& opt) {
  const double lval = loss_value(loss, pred, y);
  backward(loss_grad(loss, pred, y));
  opt.step();
  return lval;
}

double Network::train_batch(const Tensor& x, const Tensor& y, LossKind loss,
                            Optimizer& opt, std::size_t checkpoint_segments) {
  AHN_CHECK(!layers_.empty());
  if (checkpoint_segments <= 1 || layers_.size() < 2) {
    const Tensor pred = forward(x, /*training=*/true);
    return backprop_from(pred, y, loss, opt);
  }

  // Gradient checkpointing: recomputation requires deterministic layers.
  for (const auto& l : layers_) {
    AHN_CHECK_MSG(l->deterministic(),
                  "gradient checkpointing requires deterministic layers, got "
                      << l->describe());
  }
  const std::size_t segs = std::min(checkpoint_segments, layers_.size());
  // Partition layers into `segs` contiguous segments of near-equal size.
  std::vector<std::size_t> seg_begin(segs + 1);
  for (std::size_t s = 0; s <= segs; ++s) {
    seg_begin[s] = s * layers_.size() / segs;
  }

  // Forward storing only segment-boundary activations; drop in-layer caches.
  std::vector<Tensor> boundary(segs + 1);
  boundary[0] = x;
  Tensor a = x;
  for (std::size_t s = 0; s < segs; ++s) {
    for (std::size_t i = seg_begin[s]; i < seg_begin[s + 1]; ++i) {
      a = layers_[i]->forward(a, /*training=*/false);
      layers_[i]->clear_cache();
    }
    boundary[s + 1] = a;
  }

  const Tensor& pred = boundary[segs];
  const double lval = loss_value(loss, pred, y);
  Tensor g = loss_grad(loss, pred, y);

  // Backward: recompute each segment's forward (with caching) then backprop.
  for (std::size_t s = segs; s-- > 0;) {
    Tensor r = boundary[s];
    for (std::size_t i = seg_begin[s]; i < seg_begin[s + 1]; ++i) {
      r = layers_[i]->forward(r, /*training=*/true);
    }
    for (std::size_t i = seg_begin[s + 1]; i-- > seg_begin[s];) {
      if (i > 0) {
        g = layers_[i]->backward(g);
      } else {
        layers_[i]->backward_params(g);
      }
      layers_[i]->clear_cache();
    }
  }
  opt.step();
  return lval;
}

double Network::train_batch_sparse(const sparse::Csr& x, const Tensor& y, LossKind loss,
                                   Optimizer& opt) {
  AHN_CHECK(!layers_.empty());
  auto* first = dynamic_cast<DenseLayer*>(layers_.front().get());
  AHN_CHECK_MSG(first != nullptr, "sparse training requires a dense first layer");
  AHN_CHECK(x.cols() == first->in_features());

  Tensor a = sparse::sparse_input_matmul(x, first->weights());
  ops::add_row_bias(a, first->bias());
  for (std::size_t i = 1; i < layers_.size(); ++i) a = layers_[i]->forward(a, true);

  const double lval = loss_value(loss, a, y);
  Tensor g = loss_grad(loss, a, y);
  for (std::size_t i = layers_.size(); i-- > 1;) g = layers_[i]->backward(g);

  // First-layer gradients with the sparse input: dW = X^T G via the CSR
  // transpose product; db = column sums of G. X never becomes dense.
  const sparse::Csr xt = x.transpose();
  Tensor gw = sparse::spmm(xt, g);
  Tensor* w_grad = first->grads()[0];
  Tensor* b_grad = first->grads()[1];
  ops::axpy(1.0, gw, *w_grad);
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const auto row = g.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) (*b_grad)[c] += row[c];
  }
  opt.step();
  return lval;
}

std::vector<Tensor*> Network::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Network::grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* g : l->grads()) out.push_back(g);
  }
  return out;
}

std::vector<const Tensor*> Network::const_params() const {
  std::vector<const Tensor*> out;
  for (const auto& l : layers_) {
    for (const Tensor* p : l->const_params()) out.push_back(p);
  }
  return out;
}

std::size_t Network::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->param_count();
  return n;
}

OpCounts Network::inference_cost(std::size_t batch) const {
  OpCounts c;
  for (const auto& l : layers_) c += l->inference_cost(batch);
  return c;
}

std::size_t Network::activation_bytes_plain(std::size_t batch,
                                            std::size_t in_features) const {
  // Plain backprop keeps every layer's input resident.
  std::size_t bytes = 0;
  std::size_t feat = in_features;
  for (const auto& l : layers_) {
    bytes += sizeof(double) * batch * feat;
    feat = l->out_features(feat);
  }
  return bytes;
}

std::size_t Network::activation_bytes_checkpointed(std::size_t batch,
                                                   std::size_t in_features,
                                                   std::size_t segments) const {
  const std::size_t segs = std::max<std::size_t>(1, std::min(segments, layers_.size()));
  std::vector<std::size_t> seg_begin(segs + 1);
  for (std::size_t s = 0; s <= segs; ++s) seg_begin[s] = s * layers_.size() / segs;

  // Feature width entering each layer.
  std::vector<std::size_t> feat(layers_.size() + 1);
  feat[0] = in_features;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    feat[i + 1] = layers_[i]->out_features(feat[i]);
  }

  // Resident: all segment boundaries + the caches of the largest segment
  // (only one segment is re-materialized at a time during backward).
  std::size_t boundary_bytes = 0;
  for (std::size_t s = 0; s <= segs; ++s) {
    boundary_bytes += sizeof(double) * batch * feat[seg_begin[s]];
  }
  std::size_t worst_segment = 0;
  for (std::size_t s = 0; s < segs; ++s) {
    std::size_t seg_bytes = 0;
    for (std::size_t i = seg_begin[s]; i < seg_begin[s + 1]; ++i) {
      seg_bytes += sizeof(double) * batch * feat[i];
    }
    worst_segment = std::max(worst_segment, seg_bytes);
  }
  return boundary_bytes + worst_segment;
}

std::size_t Network::set_precision(Precision p) {
  std::size_t switched = 0;
  for (auto& layer : layers_) {
    auto* d = dynamic_cast<DenseLayer*>(layer.get());
    if (d == nullptr) continue;
    if (p == Precision::kInt8 && !d->has_quantized()) continue;
    if (d->precision() != p) {
      d->set_precision(p);
      ++switched;
    }
  }
  return switched;
}

Precision Network::precision() const noexcept {
  for (const auto& layer : layers_) {
    const auto* d = dynamic_cast<const DenseLayer*>(layer.get());
    if (d != nullptr && d->precision() == Precision::kInt8) return Precision::kInt8;
  }
  return Precision::kFp32;
}

std::string Network::describe() const {
  std::ostringstream os;
  os << "net[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) os << " -> ";
    os << layers_[i]->describe();
  }
  os << "]";
  return os.str();
}

void Network::save_weights(std::ostream& os) const {
  // Read-only walk: saving a quantized network must not drop its payloads.
  const auto ps = const_params();
  os << ps.size() << "\n";
  os.precision(17);
  for (const Tensor* p : ps) {
    os << p->size();
    for (double v : p->flat()) os << " " << v;
    os << "\n";
  }
}

void Network::load_weights(std::istream& is) {
  std::size_t n = 0;
  is >> n;
  // params() is a mutable access: it drops any calibrated int8 payloads, so
  // codes quantized from the old weights can never serve the new ones.
  const auto ps = params();
  AHN_CHECK_MSG(n == ps.size(), "weight file has " << n << " tensors, net has "
                                                   << ps.size());
  for (Tensor* p : ps) {
    std::size_t sz = 0;
    is >> sz;
    AHN_CHECK_MSG(sz == p->size(), "weight tensor size mismatch");
    for (double& v : p->flat()) is >> v;
  }
  AHN_CHECK_MSG(static_cast<bool>(is), "truncated weight stream");
  // Opt-in auto-requantization: the retained calibration batch rebuilds the
  // payloads for the new weights through the exact original install path.
  if (retained_calib_ != nullptr && retained_quant_opts_ != nullptr) {
    quantize_network(*this, *retained_calib_, *retained_quant_opts_);
  }
}

void Network::retain_calibration(std::shared_ptr<const Tensor> calib,
                                 std::shared_ptr<const QuantizationOptions> opts) {
  if (calib == nullptr || opts == nullptr) {
    retained_calib_.reset();
    retained_quant_opts_.reset();
    return;
  }
  retained_calib_ = std::move(calib);
  retained_quant_opts_ = std::move(opts);
}

void Network::clear_caches() {
  for (auto& l : layers_) l->clear_cache();
}

}  // namespace ahn::nn
