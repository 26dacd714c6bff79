// Tests for src/nn: layer forward/backward correctness (numeric gradient
// checks across layer types), optimizers, losses, the sparse-input path,
// gradient checkpointing equivalence and memory accounting, topology
// encode/decode, training loop behaviour and weight serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "nn/network.hpp"
#include "nn/topology.hpp"
#include "nn/train.hpp"
#include "sparse/generators.hpp"
#include "tensor/ops.hpp"
#include "team_budgets.hpp"

namespace ahn::nn {
namespace {

/// Numeric-vs-analytic gradient check for an arbitrary network.
double max_gradient_error(Network& net, const Tensor& x, const Tensor& y) {
  const Tensor pred = net.forward(x, true);
  net.backward(loss_grad(LossKind::Mse, pred, y));
  const auto params = net.params();
  const auto grads = net.grads();
  double worst = 0.0;
  for (std::size_t t = 0; t < params.size(); ++t) {
    const std::size_t stride = std::max<std::size_t>(1, params[t]->size() / 8);
    for (std::size_t j = 0; j < params[t]->size(); j += stride) {
      const double orig = (*params[t])[j];
      const double h = 1e-6;
      (*params[t])[j] = orig + h;
      const double lp = loss_value(LossKind::Mse, net.predict(x), y);
      (*params[t])[j] = orig - h;
      const double lm = loss_value(LossKind::Mse, net.predict(x), y);
      (*params[t])[j] = orig;
      const double numeric = (lp - lm) / (2.0 * h);
      const double analytic = (*grads[t])[j];
      worst = std::max(worst, std::abs(numeric - analytic) /
                                  std::max(1e-8, std::abs(numeric) + std::abs(analytic)));
    }
  }
  return worst;
}

TEST(Layers, DenseGradientCheck) {
  Rng rng(1);
  Network net;
  net.add(std::make_unique<DenseLayer>(5, 4, rng));
  const Tensor x = Tensor::randn({3, 5}, rng);
  const Tensor y = Tensor::randn({3, 4}, rng);
  EXPECT_LT(max_gradient_error(net, x, y), 1e-5);
}

// DenseLayer::forward fuses the bias add into the GEMM epilogue; the result
// must stay bitwise-identical to the unfused matmul + add_row_bias pair.
TEST(Layers, DenseForwardMatchesUnfusedBitwise) {
  Rng rng(21);
  DenseLayer dense(37, 19, rng);
  const Tensor x = Tensor::randn({5, 37}, rng);
  const Tensor fused = dense.forward(x, false);

  // An identically-seeded twin exposes the same weights; recompute the
  // forward pass through the unfused public ops.
  Rng rng2(21);
  DenseLayer twin(37, 19, rng2);
  const auto params = twin.params();
  const Tensor& w = *params[0];
  const Tensor& b = *params[1];
  Tensor manual = ops::matmul(x, w);
  ops::add_row_bias(manual, b);
  ASSERT_EQ(fused.size(), manual.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], manual[i]) << "flat index " << i;
  }
}

// gather_rows into a reused buffer must reproduce subset() exactly — the
// training loop depends on the two being interchangeable.
TEST(Train, GatherRowsMatchesSubset) {
  Rng rng(22);
  Dataset data;
  data.x = Tensor::randn({12, 5}, rng);
  data.y = Tensor::randn({12, 3}, rng);
  const std::vector<std::size_t> rows{7, 0, 11, 3};
  const Dataset expect = data.subset(rows);
  Dataset buffer;
  buffer.x = Tensor({rows.size(), 5});
  buffer.y = Tensor({rows.size(), 3});
  data.gather_rows(rows, buffer);
  for (std::size_t i = 0; i < expect.x.size(); ++i) EXPECT_EQ(buffer.x[i], expect.x[i]);
  for (std::size_t i = 0; i < expect.y.size(); ++i) EXPECT_EQ(buffer.y[i], expect.y[i]);
}

class ActivationGrad : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGrad, MlpGradientCheck) {
  Rng rng(2);
  Network net;
  net.add(std::make_unique<DenseLayer>(6, 8, rng));
  net.add(std::make_unique<ActivationLayer>(GetParam()));
  net.add(std::make_unique<DenseLayer>(8, 3, rng));
  const Tensor x = Tensor::randn({4, 6}, rng);
  const Tensor y = Tensor::randn({4, 3}, rng);
  EXPECT_LT(max_gradient_error(net, x, y), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGrad,
                         ::testing::Values(Activation::Identity, Activation::Tanh,
                                           Activation::Sigmoid, Activation::LeakyRelu));

TEST(Layers, Conv1dGradientCheck) {
  Rng rng(3);
  Network net;
  net.add(std::make_unique<Conv1dLayer>(2, 3, 3, 8, rng));  // 2ch x len8 -> 3ch
  const Tensor x = Tensor::randn({2, 16}, rng);
  const Tensor y = Tensor::randn({2, 24}, rng);
  EXPECT_LT(max_gradient_error(net, x, y), 1e-4);
}

// Batch rows are conv1d's unit of parallel work: the forward output is
// bitwise equal at every team size.
TEST(Layers, Conv1dForwardBitwiseAcrossTeamSizes) {
  Rng rng(4);
  const std::size_t in = 4, out = 8, kernel = 3, length = 32, batch = 32;
  ASSERT_TRUE(team_test::forks_full_team(batch * out * length * in * kernel, batch));
  Conv1dLayer conv(in, out, kernel, length, rng);
  const Tensor x = Tensor::randn({batch, in * length}, rng);
  team_test::expect_bitwise_equal(
      team_test::at_team_budgets([&] { return conv.forward(x, false); }));
}

// A first conv layer skips its input gradient (backward_params); its weight
// and bias gradients must be bitwise what backward() accumulates, including
// on top of an earlier batch's gradients.
TEST(Layers, Conv1dBackwardParamsMatchesBackwardBitwise) {
  Rng rng(5);
  const std::size_t in = 3, out = 4, kernel = 5, length = 16, batch = 6;
  Conv1dLayer full(in, out, kernel, length, rng);
  std::unique_ptr<Layer> params_only = full.clone();
  for (int step = 0; step < 2; ++step) {
    const Tensor x = Tensor::randn({batch, in * length}, rng);
    const Tensor g = Tensor::randn({batch, out * length}, rng);
    (void)full.forward(x, true);
    (void)params_only->forward(x, true);
    const Tensor gx = full.backward(g);
    EXPECT_EQ(gx.rows(), batch);
    EXPECT_EQ(gx.cols(), in * length);
    params_only->backward_params(g);
    const auto want = full.grads();
    const auto got = params_only->grads();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i]->size(), got[i]->size());
      EXPECT_EQ(0, std::memcmp(want[i]->data(), got[i]->data(),
                               want[i]->size() * sizeof(double)))
          << "step " << step << " grad " << i;
    }
  }
}

TEST(Layers, MaxPoolForwardAndRouting) {
  MaxPool1dLayer pool(1, 4, 2);
  Tensor x({1, 4}, {1.0, 5.0, 2.0, 3.0});
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], 5.0);
  EXPECT_EQ(y[1], 3.0);
  Tensor g({1, 2}, {1.0, 1.0});
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[1], 1.0);  // grad routed to the max positions
  EXPECT_EQ(gx[0], 0.0);
  EXPECT_EQ(gx[3], 1.0);
}

TEST(Layers, UpsampleForwardBackwardAdjoint) {
  Upsample1dLayer up(1, 3, 2);
  Tensor x({1, 3}, {1.0, 2.0, 3.0});
  const Tensor y = up.forward(x, true);
  ASSERT_EQ(y.size(), 6u);
  EXPECT_EQ(y[0], 1.0);
  EXPECT_EQ(y[1], 1.0);
  EXPECT_EQ(y[5], 3.0);
  Tensor g({1, 6}, {1, 1, 1, 1, 1, 1});
  const Tensor gx = up.backward(g);
  EXPECT_EQ(gx[0], 2.0);  // each input feeds `factor` outputs
}

TEST(Layers, ResidualGradientCheck) {
  Rng rng(4);
  std::vector<std::unique_ptr<Layer>> body;
  body.push_back(std::make_unique<DenseLayer>(5, 5, rng));
  body.push_back(std::make_unique<ActivationLayer>(Activation::Tanh));
  Network net;
  net.add(std::make_unique<ResidualLayer>(std::move(body)));
  const Tensor x = Tensor::randn({3, 5}, rng);
  const Tensor y = Tensor::randn({3, 5}, rng);
  EXPECT_LT(max_gradient_error(net, x, y), 1e-4);
}

TEST(Layers, DropoutTrainVsInference) {
  Rng rng(5);
  DropoutLayer drop(0.5, rng);
  Tensor x = Tensor::full({1, 1000}, 1.0);
  const Tensor y_train = drop.forward(x, true);
  double zeros = 0;
  for (double v : y_train.flat()) zeros += v == 0.0;
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.1);
  const Tensor y_infer = drop.forward(x, false);
  for (double v : y_infer.flat()) EXPECT_EQ(v, 1.0);  // identity at inference
  EXPECT_FALSE(drop.deterministic());
}

TEST(Loss, ValuesAndGradients) {
  const Tensor p({1, 2}, {1.0, 3.0});
  const Tensor t({1, 2}, {0.0, 5.0});
  EXPECT_DOUBLE_EQ(loss_value(LossKind::Mse, p, t), (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(loss_value(LossKind::Mae, p, t), (1.0 + 2.0) / 2.0);
  const Tensor g = loss_grad(LossKind::Mse, p, t);
  EXPECT_DOUBLE_EQ(g[0], 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0 * -2.0 / 2.0);
  // Huber behaves quadratic inside delta, linear outside.
  EXPECT_NEAR(loss_value(LossKind::Huber, p, t), (0.5 * 1.0 + (2.0 - 0.5)) / 2.0, 1e-12);
}

TEST(Optimizer, SgdReducesLossOnQuadratic) {
  // Minimize ||w - 3||^2 via the network machinery equivalent: single param.
  Tensor w({1}, {0.0});
  Tensor g({1}, {0.0});
  Sgd opt(0.1, 0.0);
  opt.bind({&w}, {&g});
  for (int i = 0; i < 100; ++i) {
    g[0] = 2.0 * (w[0] - 3.0);
    opt.step();
  }
  EXPECT_NEAR(w[0], 3.0, 1e-3);
}

TEST(Optimizer, AdamReducesLossOnQuadratic) {
  Tensor w({2}, {0.0, 10.0});
  Tensor g({2}, {0.0, 0.0});
  Adam opt(0.3);
  opt.bind({&w}, {&g});
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0 * (w[0] + 1.0);
    g[1] = 2.0 * (w[1] - 4.0);
    opt.step();
  }
  EXPECT_NEAR(w[0], -1.0, 1e-2);
  EXPECT_NEAR(w[1], 4.0, 1e-2);
}

// Adam::step is compiled without errno so that its loop vectorizes; the
// update must stay the bits of the scalar loop it was written as.
TEST(Optimizer, AdamStepEqualsScalarUpdateBitwise) {
  const double lr = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  Rng rng(31);
  const std::size_t n = 37;  // not a multiple of any vector width
  Tensor w = Tensor::randn({n}, rng);
  Tensor g({n});
  Adam opt(lr, beta1, beta2, eps);
  opt.bind({&w}, {&g});
  std::vector<double> rw(w.flat().begin(), w.flat().end()), rm(n, 0.0), rv(n, 0.0);
  for (int t = 1; t <= 60; ++t) {
    std::vector<double> rg(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double scale = t % 20 == 0 ? 1e-30 : (t % 13 == 0 ? 1e30 : 1.0);
      rg[j] = j % 11 == 0 ? 0.0 : rng.gaussian() * scale;
      g[j] = rg[j];
    }
    opt.step();
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (std::size_t j = 0; j < n; ++j) {
      rm[j] = beta1 * rm[j] + (1.0 - beta1) * rg[j];
      rv[j] = beta2 * rv[j] + (1.0 - beta2) * rg[j] * rg[j];
      const double mhat = rm[j] / bc1;
      const double vhat = rv[j] / bc2;
      rw[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
    ASSERT_EQ(0, std::memcmp(w.data(), rw.data(), n * sizeof(double))) << "step " << t;
    for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(g[j], 0.0);
  }
}

TEST(Network, SparsePredictMatchesDense) {
  Rng rng(6);
  Network net;
  net.add(std::make_unique<DenseLayer>(10, 6, rng));
  net.add(std::make_unique<ActivationLayer>(Activation::Tanh));
  net.add(std::make_unique<DenseLayer>(6, 2, rng));
  const sparse::Csr x = sparse::random_sparse(4, 10, 0.3, rng);
  const Tensor dense_pred = net.predict(x.to_dense());
  const Tensor sparse_pred = net.predict_sparse(x);
  for (std::size_t i = 0; i < dense_pred.size(); ++i) {
    EXPECT_NEAR(dense_pred[i], sparse_pred[i], 1e-12);
  }
}

TEST(Network, SparseTrainingMatchesDenseTraining) {
  Rng rng(7);
  const sparse::Csr x = sparse::random_sparse(16, 10, 0.3, rng);
  const Tensor y = Tensor::randn({16, 3}, rng);

  auto make_net = [] {
    Rng r(99);
    Network net;
    net.add(std::make_unique<DenseLayer>(10, 8, r));
    net.add(std::make_unique<ActivationLayer>(Activation::Tanh));
    net.add(std::make_unique<DenseLayer>(8, 3, r));
    return net;
  };
  Network dense_net = make_net();
  Network sparse_net = make_net();
  Adam od(1e-2), os(1e-2);
  od.bind(dense_net.params(), dense_net.grads());
  os.bind(sparse_net.params(), sparse_net.grads());

  const Tensor xd = x.to_dense();
  double dl = 0, sl = 0;
  for (int i = 0; i < 5; ++i) {
    dl = dense_net.train_batch(xd, y, LossKind::Mse, od);
    sl = sparse_net.train_batch_sparse(x, y, LossKind::Mse, os);
  }
  EXPECT_NEAR(dl, sl, 1e-9);
  const Tensor pd = dense_net.predict(xd);
  const Tensor ps = sparse_net.predict_sparse(x);
  for (std::size_t i = 0; i < pd.size(); ++i) EXPECT_NEAR(pd[i], ps[i], 1e-9);
}

TEST(Network, CheckpointedTrainingMatchesPlain) {
  Rng rng(8);
  const Tensor x = Tensor::randn({8, 6}, rng);
  const Tensor y = Tensor::randn({8, 2}, rng);
  auto make_net = [] {
    Rng r(5);
    Network net;
    net.add(std::make_unique<DenseLayer>(6, 12, r));
    net.add(std::make_unique<ActivationLayer>(Activation::Tanh));
    net.add(std::make_unique<DenseLayer>(12, 12, r));
    net.add(std::make_unique<ActivationLayer>(Activation::Tanh));
    net.add(std::make_unique<DenseLayer>(12, 2, r));
    return net;
  };
  Network plain = make_net();
  Network ckpt = make_net();
  Adam op(1e-2), oc(1e-2);
  op.bind(plain.params(), plain.grads());
  oc.bind(ckpt.params(), ckpt.grads());
  for (int i = 0; i < 4; ++i) {
    const double lp = plain.train_batch(x, y, LossKind::Mse, op, 1);
    const double lc = ckpt.train_batch(x, y, LossKind::Mse, oc, 3);
    EXPECT_NEAR(lp, lc, 1e-10);  // recomputation must be bit-for-bit-ish
  }
}

TEST(Network, CheckpointingRejectsStochasticLayers) {
  Rng rng(9);
  Network net;
  net.add(std::make_unique<DenseLayer>(4, 4, rng));
  net.add(std::make_unique<DropoutLayer>(0.5, rng));
  net.add(std::make_unique<DenseLayer>(4, 2, rng));
  Adam opt(1e-3);
  opt.bind(net.params(), net.grads());
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor y = Tensor::randn({2, 2}, rng);
  EXPECT_THROW((void)net.train_batch(x, y, LossKind::Mse, opt, 2), Error);
}

TEST(Network, CheckpointingReducesActivationMemory) {
  Rng rng(10);
  Network net;
  std::size_t width = 64;
  net.add(std::make_unique<DenseLayer>(width, width, rng));
  for (int i = 0; i < 6; ++i) {
    net.add(std::make_unique<ActivationLayer>(Activation::Tanh));
    net.add(std::make_unique<DenseLayer>(width, width, rng));
  }
  const std::size_t plain = net.activation_bytes_plain(32, width);
  const std::size_t ckpt = net.activation_bytes_checkpointed(32, width, 4);
  EXPECT_LT(ckpt, plain);  // the whole point of §4.2's gradient checkpointing
  EXPECT_LT(static_cast<double>(ckpt) / static_cast<double>(plain), 0.75);
}

TEST(Network, WeightSerializationRoundTrip) {
  Rng rng(11);
  Network a;
  a.add(std::make_unique<DenseLayer>(4, 3, rng));
  a.add(std::make_unique<ActivationLayer>(Activation::Relu));
  a.add(std::make_unique<DenseLayer>(3, 2, rng));
  std::stringstream ss;
  a.save_weights(ss);

  Rng rng2(999);  // different init — will be overwritten by load
  Network b;
  b.add(std::make_unique<DenseLayer>(4, 3, rng2));
  b.add(std::make_unique<ActivationLayer>(Activation::Relu));
  b.add(std::make_unique<DenseLayer>(3, 2, rng2));
  b.load_weights(ss);

  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor pa = a.predict(x);
  const Tensor pb = b.predict(x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

TEST(Network, CopySemanticDeep) {
  Rng rng(12);
  Network a;
  a.add(std::make_unique<DenseLayer>(3, 3, rng));
  Network b = a;
  // Mutating b's weights must not affect a.
  auto* bd = dynamic_cast<DenseLayer*>(&b.layer(0));
  bd->mutable_weights().fill(0.0);
  const Tensor x = Tensor::randn({1, 3}, rng);
  const Tensor pa = a.predict(x);
  EXPECT_NE(ops::norm2(pa.flat()), 0.0);
}

TEST(Train, DatasetSplitPartitionsRows) {
  Rng rng(13);
  Dataset d;
  d.x = Tensor::randn({10, 3}, rng);
  d.y = Tensor::randn({10, 1}, rng);
  auto [train, val] = d.split(0.7, rng);
  EXPECT_EQ(train.size() + val.size(), 10u);
  EXPECT_GE(train.size(), 1u);
  EXPECT_GE(val.size(), 1u);
}

TEST(Train, NormalizerRoundTrip) {
  Rng rng(14);
  Tensor data = Tensor::randn({20, 4}, rng, 3.0);
  const Normalizer norm = Normalizer::fit(data);
  const Tensor z = norm.apply(data);
  // Standardized columns: ~zero mean.
  for (std::size_t c = 0; c < 4; ++c) {
    double m = 0;
    for (std::size_t r = 0; r < 20; ++r) m += z.at(r, c);
    EXPECT_NEAR(m / 20.0, 0.0, 1e-10);
  }
  const Tensor back = norm.invert(z);
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_NEAR(back[i], data[i], 1e-10);
}

TEST(Train, LearnsLinearMapWell) {
  Rng rng(15);
  Dataset d;
  const Tensor w = Tensor::randn({6, 4}, rng);
  d.x = Tensor::randn({200, 6}, rng);
  d.y = ops::matmul(d.x, w);
  TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 16;
  spec.act = Activation::Identity;
  Rng r2(1);
  Network net = build_surrogate(spec, 6, 4, r2);
  TrainOptions opts;
  opts.epochs = 200;
  opts.lr = 5e-3;
  opts.patience = 100;
  const TrainedSurrogate ts = train_surrogate(std::move(net), d, opts);
  const Tensor pred = ts.predict(d.x);
  EXPECT_LT(mean_relative_error(pred, d.y), 0.05);
}

TEST(Train, EarlyStoppingStopsBeforeBudget) {
  Rng rng(16);
  Dataset d;
  d.x = Tensor::randn({40, 2}, rng);
  d.y = d.x;  // trivially learnable
  TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  spec.act = Activation::Identity;
  Rng r2(2);
  Network net = build_surrogate(spec, 2, 2, r2);
  TrainOptions opts;
  opts.epochs = 2000;
  opts.lr = 1e-2;
  opts.patience = 5;
  const TrainedSurrogate ts = train_surrogate(std::move(net), d, opts);
  EXPECT_LT(ts.result.epochs_run, 2000u);
}

TEST(Topology, EncodeDecodeRoundTripPreservesSpec) {
  TopologySpace space;
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const TopologySpec s = space.random(rng);
    const TopologySpec t = space.decode(space.encode(s));
    EXPECT_EQ(t.kind, s.kind);
    EXPECT_EQ(t.num_layers, s.num_layers);
    EXPECT_EQ(t.residual, s.residual);
    EXPECT_EQ(t.act, s.act);
    // Width round-trips within the log-grid resolution.
    const double ratio = static_cast<double>(t.hidden_units) /
                         static_cast<double>(s.hidden_units);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
  }
}

TEST(Topology, DecodeClampsOutOfRange) {
  TopologySpace space;
  std::vector<double> x(TopologySpace::encoded_dim(), 2.0);  // out of box
  const TopologySpec s = space.decode(x);
  EXPECT_LE(s.num_layers, space.max_layers);
  EXPECT_LE(s.hidden_units, space.max_units + 1);
}

TEST(Topology, MutateStaysInSpace) {
  TopologySpace space;
  Rng rng(18);
  TopologySpec s = space.random(rng);
  for (int i = 0; i < 30; ++i) {
    s = space.mutate(s, rng);
    EXPECT_GE(s.num_layers, space.min_layers);
    EXPECT_LE(s.num_layers, space.max_layers);
  }
}

TEST(Topology, BuildCnnShapesCompose) {
  TopologySpec spec;
  spec.kind = ModelKind::Cnn;
  spec.num_layers = 2;
  spec.channels = 4;
  spec.kernel = 3;
  spec.pool = 2;
  spec.hidden_units = 16;
  Rng rng(19);
  Network net = build_surrogate(spec, 32, 5, rng);
  const Tensor x = Tensor::randn({3, 32}, rng);
  const Tensor y = net.predict(x);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 5u);
}

TEST(Topology, InferenceCostGrowsWithWidth) {
  Rng rng(20);
  TopologySpec narrow, wide;
  narrow.hidden_units = 16;
  wide.hidden_units = 256;
  Network a = build_surrogate(narrow, 32, 8, rng);
  Network b = build_surrogate(wide, 32, 8, rng);
  EXPECT_LT(a.inference_cost(1).flops, b.inference_cost(1).flops);
}

}  // namespace
}  // namespace ahn::nn
