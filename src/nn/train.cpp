#include "nn/train.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace ahn::nn {

Dataset Dataset::subset(const std::vector<std::size_t>& rows) const {
  Dataset out;
  out.x = Tensor({rows.size(), x.cols()});
  out.y = Tensor({rows.size(), y.cols()});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    AHN_CHECK(rows[i] < size());
    std::copy(x.row(rows[i]).begin(), x.row(rows[i]).end(), out.x.row(i).begin());
    std::copy(y.row(rows[i]).begin(), y.row(rows[i]).end(), out.y.row(i).begin());
  }
  return out;
}

void Dataset::gather_rows(std::span<const std::size_t> rows, Dataset& out) const {
  AHN_CHECK(out.x.rows() == rows.size() && out.x.cols() == x.cols());
  AHN_CHECK(out.y.rows() == rows.size() && out.y.cols() == y.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    AHN_CHECK(rows[i] < size());
    std::copy(x.row(rows[i]).begin(), x.row(rows[i]).end(), out.x.row(i).begin());
    std::copy(y.row(rows[i]).begin(), y.row(rows[i]).end(), out.y.row(i).begin());
  }
}

std::pair<Dataset, Dataset> Dataset::split(double ratio, Rng& rng) const {
  AHN_CHECK(ratio > 0.0 && ratio < 1.0);
  AHN_CHECK(size() >= 2);
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::size_t n_train = static_cast<std::size_t>(ratio * static_cast<double>(size()));
  n_train = std::clamp<std::size_t>(n_train, 1, size() - 1);
  const std::vector<std::size_t> train_rows(order.begin(),
                                            order.begin() + static_cast<std::ptrdiff_t>(n_train));
  const std::vector<std::size_t> val_rows(order.begin() + static_cast<std::ptrdiff_t>(n_train),
                                          order.end());
  return {subset(train_rows), subset(val_rows)};
}

Normalizer Normalizer::fit(const Tensor& data) {
  AHN_CHECK(data.rank() == 2 && data.rows() > 0);
  const std::size_t n = data.rows(), f = data.cols();
  Normalizer norm;
  norm.mean_.assign(f, 0.0);
  norm.scale_.assign(f, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < f; ++c) norm.mean_[c] += data.at(r, c);
  }
  for (double& m : norm.mean_) m /= static_cast<double>(n);
  std::vector<double> var(f, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < f; ++c) {
      const double d = data.at(r, c) - norm.mean_[c];
      var[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < f; ++c) {
    const double sd = std::sqrt(var[c] / static_cast<double>(n));
    norm.scale_[c] = sd > 1e-12 ? sd : 1.0;
  }
  return norm;
}

Tensor Normalizer::apply(const Tensor& data) const {
  AHN_CHECK(data.rank() == 2 && data.cols() == features());
  Tensor out = data;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = (out.at(r, c) - mean_[c]) / scale_[c];
    }
  }
  return out;
}

Tensor Normalizer::invert(const Tensor& data) const {
  AHN_CHECK(data.rank() == 2 && data.cols() == features());
  Tensor out = data;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = out.at(r, c) * scale_[c] + mean_[c];
    }
  }
  return out;
}

Tensor TrainedSurrogate::predict(const Tensor& x) const {
  const Tensor xin = x_norm ? x_norm->apply(x) : x;
  Tensor pred = net.predict(xin);
  return y_norm ? y_norm->invert(pred) : pred;
}

Tensor pack_rows(std::span<const Tensor> rows) {
  AHN_CHECK_MSG(!rows.empty(), "pack_rows needs at least one row");
  auto row_width = [](const Tensor& t) {
    return t.rank() == 1 ? t.size() : t.cols();
  };
  const std::size_t width = row_width(rows.front());
  Tensor batch({rows.size(), width});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Tensor& t = rows[r];
    AHN_CHECK_MSG(t.rank() == 1 || (t.rank() == 2 && t.rows() == 1),
                  "pack_rows expects single rows, got shape " << t.shape_string());
    AHN_CHECK_MSG(row_width(t) == width, "batched rows must share a width: got "
                                             << row_width(t) << " and " << width);
    std::copy(t.flat().begin(), t.flat().end(), batch.row(r).begin());
  }
  return batch;
}

Tensor TrainedSurrogate::predict_rows(std::span<const Tensor> rows) const {
  return predict(pack_rows(rows));
}

TrainedSurrogate train_surrogate(Network net, const Dataset& data,
                                 const TrainOptions& opts) {
  AHN_CHECK(data.size() >= 2);
  // Training always runs on the fp32 master weights; a warm-start copy of a
  // quantized serving net must drop to fp32 here (its int8 payload is stale
  // after the first step — re-quantize after training to serve int8 again).
  net.set_precision(Precision::kFp32);
  const obs::Span span(obs::Tracer::global(), "nn.train_surrogate");
  Rng rng(opts.seed);
  auto [train, val] = data.split(opts.train_ratio, rng);

  TrainedSurrogate out;
  if (opts.standardize) {
    out.x_norm = Normalizer::fit(train.x);
    out.y_norm = Normalizer::fit(train.y);
    train.x = out.x_norm->apply(train.x);
    train.y = out.y_norm->apply(train.y);
    val.x = out.x_norm->apply(val.x);
    val.y = out.y_norm->apply(val.y);
  }

  Adam opt(opts.lr);
  opt.bind(net.params(), net.grads());

  const std::size_t n = train.size();
  const std::size_t bs = std::max<std::size_t>(1, std::min(opts.batch_size, n));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  double best_val = std::numeric_limits<double>::infinity();
  Network best_net = net;
  std::size_t stale = 0;
  TrainResult res;
  Dataset full_batch, tail_batch;

  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += bs) {
      const std::size_t end = std::min(start + bs, n);
      const std::size_t len = end - start;
      // Reuse one preallocated buffer per batch size (full-size steps plus
      // at most one tail size) instead of allocating a Dataset every step.
      Dataset& batch = len == bs ? full_batch : tail_batch;
      if (batch.x.rank() != 2 || batch.x.rows() != len) {
        batch.x = Tensor({len, train.in_features()});
        batch.y = Tensor({len, train.out_features()});
      }
      train.gather_rows({order.data() + start, len}, batch);
      epoch_loss += net.train_batch(batch.x, batch.y, opts.loss, opt,
                                    opts.checkpoint_segments);
      ++batches;
    }
    res.train_loss = epoch_loss / static_cast<double>(std::max<std::size_t>(1, batches));

    const Tensor vp = net.predict(val.x);
    const double vloss = loss_value(opts.loss, vp, val.y);
    res.val_history.push_back(vloss);
    res.epochs_run = epoch + 1;
    if (vloss < best_val - 1e-12) {
      best_val = vloss;
      best_net = net;
      stale = 0;
    } else if (++stale > opts.patience) {
      break;
    }
  }
  res.val_loss = std::isfinite(best_val) ? best_val : res.val_history.back();
  out.net = std::move(best_net);
  out.net.clear_caches();
  out.result = res;
  return out;
}

std::vector<double> row_relative_errors(const Tensor& pred, const Tensor& target) {
  AHN_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  AHN_CHECK(pred.rows() > 0);
  std::vector<double> errors(pred.rows());
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    double num = 0.0, den = 0.0;
    for (std::size_t c = 0; c < pred.cols(); ++c) {
      const double d = pred.at(r, c) - target.at(r, c);
      num += d * d;
      den += target.at(r, c) * target.at(r, c);
    }
    errors[r] = std::sqrt(num) / (std::sqrt(den) + 1e-12);
  }
  return errors;
}

double mean_relative_error(const Tensor& pred, const Tensor& target) {
  const std::vector<double> errors = row_relative_errors(pred, target);
  double total = 0.0;
  for (const double e : errors) total += e;
  return total / static_cast<double>(errors.size());
}

}  // namespace ahn::nn
