// Tests for the calibrated int8 inference path (docs/PERFORMANCE.md —
// "Calibrated int8 inference"): quantize/dequantize round-trip bounds, the
// zero-range identity guard, calibrator determinism across runs and OpenMP
// thread counts, per-shape kernel-selector cache behaviour, bitwise batch
// invariance of quantized serving, precision switching, the NAS precision
// axis, and quantized candidates riding the shadow/canary rollout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "nas/search_task.hpp"
#include "nn/quantization.hpp"
#include "nn/topology.hpp"
#include "nn/train.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"
#include "runtime/rollout.hpp"
#include "tensor/kernel_select.hpp"
#include "tensor/quantize.hpp"
#include "team_budgets.hpp"

namespace ahn {
namespace {

// ------------------------------------------------------------ QuantParams

TEST(QuantParams, RoundTripWithinHalfScale) {
  const quant::QuantParams q = quant::params_from_range(-3.0, 5.0);
  ASSERT_GT(q.scale, 0.0);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    const double back = quant::dequantize_value(quant::quantize_value(x, q), q);
    EXPECT_LE(std::abs(back - x), 0.5 * q.scale + 1e-12) << "x=" << x;
  }
}

TEST(QuantParams, ZeroIsExactlyRepresentable) {
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {-3.0, 5.0}, {0.5, 9.0}, {-7.0, -0.25}}) {
    const quant::QuantParams q = quant::params_from_range(lo, hi);
    EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.0, q), q), 0.0)
        << "[" << lo << "," << hi << "]";
  }
}

TEST(QuantParams, DegenerateRangesReturnIdentity) {
  EXPECT_TRUE(quant::params_from_range(0.0, 0.0).is_identity());
  EXPECT_TRUE(quant::params_from_range(2.0, 2.0).is_identity() ||
              quant::params_from_range(2.0, 2.0).scale > 0.0);  // widened to [0,2]
  const double nan = std::nan("");
  EXPECT_TRUE(quant::params_from_range(nan, 1.0).is_identity());
  EXPECT_TRUE(quant::params_from_range(-1.0, nan).is_identity());
  EXPECT_TRUE(quant::params_symmetric(0.0).is_identity());
  EXPECT_TRUE(quant::params_symmetric(nan).is_identity());
  EXPECT_TRUE(quant::params_symmetric(-1.0).is_identity());
}

// Regression (satellite): a constant/zero-range tensor must quantize with
// identity scale — no division by zero, finite outputs everywhere.
TEST(QuantParams, ConstantZeroTensorQuantizesFinite) {
  quant::Calibrator calib;
  const Tensor zeros = Tensor::zeros({8, 16});
  calib.observe(zeros);
  const quant::QuantParams q = calib.params({});
  EXPECT_TRUE(q.is_identity());
  std::vector<std::int8_t> out(zeros.size());
  quant::quantize(zeros.flat(), q, out.data());
  for (const std::int8_t v : out) EXPECT_EQ(v, 0);
  EXPECT_TRUE(std::isfinite(quant::dequantize_value(out[0], q)));
}

TEST(QuantParams, AllZeroWeightLayerServesFiniteZeros) {
  Rng rng(3);
  nn::DenseLayer layer(6, 4, rng);
  layer.mutable_weights().fill(0.0);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;  // force the int8 kernel path
  layer.set_quantized(nn::build_quantized_dense(
      layer.weights(), quant::params_from_range(-1.0, 1.0), opts));
  Tensor x({2, 6});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.3;
  const Tensor y = layer.forward(x, /*training=*/false);
  for (const double v : y.flat()) {
    ASSERT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);
  }
}

// ------------------------------------------------------------- Calibrator

TEST(Calibrator, DeterministicAcrossRuns) {
  Rng rng(11);
  std::vector<double> stream(4096);
  for (auto& v : stream) v = rng.gaussian() * 2.5;
  quant::Calibrator a, b;
  a.observe(stream);
  b.observe(stream);
  for (const auto method : {quant::CalibMethod::MinMax, quant::CalibMethod::Percentile,
                            quant::CalibMethod::Entropy}) {
    quant::CalibOptions o;
    o.method = method;
    const quant::QuantParams pa = a.params(o), pb = b.params(o);
    EXPECT_EQ(pa.scale, pb.scale) << quant::calib_method_name(method);
    EXPECT_EQ(pa.zero_point, pb.zero_point) << quant::calib_method_name(method);
  }
}

TEST(Calibrator, PercentileClipsOutliers) {
  Rng rng(13);
  std::vector<double> stream(9999);
  for (auto& v : stream) v = rng.uniform(-1.0, 1.0);
  stream.push_back(1000.0);  // one wild outlier
  quant::Calibrator c;
  c.observe(stream);
  quant::CalibOptions minmax{quant::CalibMethod::MinMax, 99.9, false};
  quant::CalibOptions pct{quant::CalibMethod::Percentile, 99.9, false};
  const double s_minmax = c.params(minmax).scale;
  const double s_pct = c.params(pct).scale;
  EXPECT_GT(s_minmax, 100.0 * s_pct);  // outlier inflates minmax only
  EXPECT_LT(s_pct, 0.05);              // ~2/255, histogram-bin resolution
}

TEST(Calibrator, EntropyRangeWithinObserved) {
  Rng rng(17);
  std::vector<double> stream(8192);
  for (auto& v : stream) v = rng.gaussian();
  quant::Calibrator c;
  c.observe(stream);
  quant::CalibOptions o;
  o.method = quant::CalibMethod::Entropy;
  const quant::QuantParams q = c.params(o);
  ASSERT_GT(q.scale, 0.0);
  // Clip threshold never exceeds the observed extent.
  EXPECT_LE(q.scale * 255.0, (c.max() - c.min()) + 1e-9);
}

TEST(Calibrator, NonFiniteSamplesIgnored) {
  quant::Calibrator c;
  const double inf = std::numeric_limits<double>::infinity();
  c.observe(std::vector<double>{1.0, -2.0, inf, -inf, std::nan(""), 0.5});
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.min(), -2.0);
  EXPECT_EQ(c.max(), 1.0);
  EXPECT_GT(c.params({}).scale, 0.0);
  EXPECT_TRUE(std::isfinite(c.params({}).scale));
}

// Calibration + quantized install must yield bitwise-identical networks
// regardless of the OpenMP thread count running the forwards.
TEST(Calibrator, QuantizedNetworkIdenticalAcrossThreadCounts) {
  Rng data_rng(23);
  Tensor calib({64, 12});
  for (std::size_t i = 0; i < calib.size(); ++i) calib[i] = data_rng.gaussian();
  Tensor probe({256, 12});
  for (std::size_t i = 0; i < probe.size(); ++i) probe[i] = data_rng.gaussian();
  constexpr std::size_t kHidden = 64;
  // The probe's first layer alone sits above the grain: every budget forks.
  ASSERT_TRUE(team_test::forks_full_team(probe.rows() * probe.cols() * kHidden, probe.rows()));

  nn::QuantizationOptions opts;
  opts.probe_kernels = false;  // probe timing is allowed to vary; params are not
  team_test::expect_bitwise_equal(team_test::at_team_budgets([&] {
    Rng rng(29);
    nn::TopologySpec spec;
    spec.num_layers = 2;
    spec.hidden_units = kHidden;
    nn::Network net = nn::build_surrogate(spec, 12, 3, rng);
    nn::quantize_network(net, calib, opts);
    return net.predict(probe);
  }));
}

// ---------------------------------------------------------- KernelSelector

TEST(KernelSelector, CachesProbesAndCountsHits) {
  auto& sel = ops::KernelSelector::instance();
  sel.clear();
  sel.set_probe_reps(1);
  const ops::KernelChoice first = sel.choose(4, 8, 16, true);
  EXPECT_EQ(sel.probes(), 1u);
  EXPECT_EQ(sel.hits(), 0u);
  EXPECT_EQ(sel.cache_size(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sel.choose(4, 8, 16, true), first);  // cached answer is stable
  }
  EXPECT_EQ(sel.probes(), 1u);
  EXPECT_EQ(sel.hits(), 5u);
  sel.choose(4, 8, 16, false);  // int8 eligibility is part of the key
  EXPECT_EQ(sel.probes(), 2u);
  EXPECT_EQ(sel.cache_size(), 2u);
  sel.clear();
  EXPECT_EQ(sel.cache_size(), 0u);
  EXPECT_EQ(sel.probes(), 0u);
}

TEST(KernelSelector, Fp32OnlyWhenInt8Disallowed) {
  auto& sel = ops::KernelSelector::instance();
  sel.clear();
  sel.set_probe_reps(1);
  const ops::KernelChoice c = sel.choose(8, 8, 8, false);
  EXPECT_FALSE(ops::kernel_is_int8(c));
}

// Both int8 kernel variants compute the identical int32 accumulation, on
// the Dot kernel's 4x4 tiles, tail columns and tail rows alike.
TEST(Int8Gemm, DotAndRowVariantsBitwiseEqual) {
  Rng rng(31);
  struct Shape { std::size_t m, n, k; };
  for (const auto& [m, n, k] : {Shape{5, 7, 23}, Shape{8, 9, 40}, Shape{3, 4, 17}}) {
    std::vector<double> a(m * k), w(k * n), bias(n);
    for (auto& v : a) v = rng.uniform(-2.0, 2.0);
    for (auto& v : w) v = rng.uniform(-1.0, 1.0);
    for (auto& v : bias) v = rng.uniform(-0.5, 0.5);
    const quant::QuantParams aq = quant::params_from_range(-2.0, 2.0);
    const quant::QuantParams wq = quant::params_symmetric(1.0);
    std::vector<std::int16_t> a16(m * k), w16(k * n), wt16(n * k);
    quant::quantize(a, aq, a16.data());
    quant::quantize(w, wq, w16.data());
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) wt16[j * k + p] = w16[p * n + j];
    }
    std::vector<std::int32_t> colsum(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) colsum[j] += wt16[j * k + p];
    }
    std::vector<double> dot(m * n), row(m * n);
    quant::i8_gemm(quant::Int8Kernel::Dot, m, n, k, a16.data(), wt16.data(), w16.data(),
                   colsum.data(), aq, wq, bias.data(), ops::EpilogueAct::Relu, dot.data());
    quant::i8_gemm(quant::Int8Kernel::Row, m, n, k, a16.data(), wt16.data(), w16.data(),
                   colsum.data(), aq, wq, bias.data(), ops::EpilogueAct::Relu, row.data());
    EXPECT_EQ(std::memcmp(dot.data(), row.data(), dot.size() * sizeof(double)), 0)
        << m << "x" << n << "x" << k;
  }
}

// Rows (Row) and 4-row groups (Dot) are the int8 kernels' units of parallel
// work (each thread keeps its own int32 accumulators): both are bitwise
// equal at every team size.
TEST(Int8Gemm, BitwiseAcrossTeamSizes) {
  Rng rng(37);
  const std::size_t m = 64, n = 32, k = 64;
  ASSERT_TRUE(team_test::forks_full_team(m * n * k, m / 4));
  std::vector<double> a(m * k), w(k * n), bias(n);
  for (auto& v : a) v = rng.uniform(-2.0, 2.0);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  for (auto& v : bias) v = rng.uniform(-0.5, 0.5);
  const quant::QuantParams aq = quant::params_from_range(-2.0, 2.0);
  const quant::QuantParams wq = quant::params_symmetric(1.0);
  std::vector<std::int16_t> a16(m * k), w16(k * n), wt16(n * k);
  quant::quantize(a, aq, a16.data());
  quant::quantize(w, wq, w16.data());
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) wt16[j * k + p] = w16[p * n + j];
  }
  std::vector<std::int32_t> colsum(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) colsum[j] += wt16[j * k + p];
  }
  for (const auto kind : {quant::Int8Kernel::Dot, quant::Int8Kernel::Row}) {
    team_test::expect_bitwise_equal(team_test::at_team_budgets([&] {
      std::vector<double> out(m * n);
      quant::i8_gemm(kind, m, n, k, a16.data(), wt16.data(), w16.data(), colsum.data(),
                     aq, wq, bias.data(), ops::EpilogueAct::Tanh, out.data());
      return out;
    }));
  }
}

// ------------------------------------------------- Quantized dense serving

nn::Network small_net(std::uint64_t seed, std::size_t in = 10, std::size_t out = 3) {
  Rng rng(seed);
  nn::TopologySpec spec;
  spec.num_layers = 2;
  spec.hidden_units = 24;
  return nn::build_surrogate(spec, in, out, rng);
}

Tensor gaussian_batch(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t({rows, cols});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.gaussian();
  return t;
}

TEST(QuantizedNetwork, CloseToFp32OnCalibratedDomain) {
  nn::Network net = small_net(41);
  const Tensor calib = gaussian_batch(128, 10, 42);
  const Tensor x = gaussian_batch(32, 10, 43);
  const Tensor fp = net.predict(x);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  EXPECT_EQ(nn::quantize_network(net, calib, opts), 3u);  // 2 hidden + 1 out
  const Tensor q = net.predict(x);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < fp.size(); ++i) {
    num += (q[i] - fp[i]) * (q[i] - fp[i]);
    den += fp[i] * fp[i];
  }
  EXPECT_LT(std::sqrt(num / den), 0.1) << "relative L2 error of int8 vs fp32";
}

// Quantized batched serving must equal quantized per-row inference bitwise.
TEST(QuantizedNetwork, BitwiseStableAcrossBatchSizes) {
  nn::Network net = small_net(47);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(96, 10, 48), opts);

  const Tensor batch = gaussian_batch(32, 10, 49);
  const Tensor full = net.predict(batch);
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    Tensor one({1, batch.cols()});
    std::copy(batch.row(r).begin(), batch.row(r).end(), one.row(0).begin());
    const Tensor single = net.predict(one);
    ASSERT_EQ(single.size(), full.cols());
    EXPECT_EQ(std::memcmp(single.data(), full.row(r).data(),
                          full.cols() * sizeof(double)),
              0)
        << "row " << r;
  }
}

TEST(QuantizedNetwork, PrecisionSwitchRoundTrips) {
  nn::Network net = small_net(53);
  const Tensor x = gaussian_batch(8, 10, 54);
  const Tensor fp_before = net.predict(x);
  EXPECT_EQ(net.precision(), nn::Precision::kFp32);

  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(64, 10, 55), opts);
  EXPECT_EQ(net.precision(), nn::Precision::kInt8);
  const Tensor q1 = net.predict(x);

  EXPECT_GT(net.set_precision(nn::Precision::kFp32), 0u);
  const Tensor fp_after = net.predict(x);
  EXPECT_EQ(std::memcmp(fp_before.data(), fp_after.data(),
                        fp_before.size() * sizeof(double)),
            0);

  EXPECT_GT(net.set_precision(nn::Precision::kInt8), 0u);
  const Tensor q2 = net.predict(x);
  EXPECT_EQ(std::memcmp(q1.data(), q2.data(), q1.size() * sizeof(double)), 0);
}

TEST(QuantizedNetwork, CopyCarriesQuantizedPayload) {
  nn::Network net = small_net(59);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(64, 10, 60), opts);
  const Tensor x = gaussian_batch(4, 10, 61);
  const Tensor orig = net.predict(x);

  const nn::Network copy = net;  // registry/cluster fan-out path
  EXPECT_EQ(copy.precision(), nn::Precision::kInt8);
  const Tensor replicated = copy.predict(x);
  EXPECT_EQ(std::memcmp(orig.data(), replicated.data(), orig.size() * sizeof(double)),
            0);
}

// Regression (tentpole bugfix): load_weights used to leave the calibrated
// int8 payloads installed, so a weight refresh kept serving codes quantized
// from the OLD weights. Any mutable weight access must drop the payload.
TEST(QuantizedNetwork, LoadWeightsInvalidatesStaleInt8Payload) {
  nn::Network net = small_net(71);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(64, 10, 72), opts);
  ASSERT_EQ(net.precision(), nn::Precision::kInt8);

  // A same-architecture network with different weights (the registry's
  // version-refresh path).
  nn::Network donor = small_net(73);
  std::stringstream weights;
  donor.save_weights(weights);
  net.load_weights(weights);

  // No retained calibration: the net must fall back to fp32 — never serve
  // old-weight codes — and track the donor's outputs bitwise.
  EXPECT_EQ(net.precision(), nn::Precision::kFp32);
  const Tensor x = gaussian_batch(8, 10, 74);
  const Tensor got = net.predict(x);
  const Tensor want = donor.predict(x);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
}

// Opt-in retention: load_weights re-runs the exact quantize_network install,
// so serving after a weight refresh is bitwise-equal to a fresh calibration.
TEST(QuantizedNetwork, LoadWeightsAutoRequantizesWithRetainedCalibration) {
  const Tensor calib = gaussian_batch(64, 10, 76);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  opts.retain_calibration = true;

  nn::Network net = small_net(75);
  nn::quantize_network(net, calib, opts);
  ASSERT_TRUE(net.has_retained_calibration());

  nn::Network donor = small_net(77);
  std::stringstream weights;
  donor.save_weights(weights);
  net.load_weights(weights);
  EXPECT_EQ(net.precision(), nn::Precision::kInt8);

  // Reference: the donor weights quantized from scratch on the same batch.
  nn::Network fresh = donor;
  nn::quantize_network(fresh, calib, opts);
  const Tensor x = gaussian_batch(16, 10, 78);
  const Tensor got = net.predict(x);
  const Tensor want = fresh.predict(x);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
}

TEST(QuantizedNetwork, MutableWeightAccessDropsPayloadAndBumpsGeneration) {
  nn::Network net = small_net(79);
  auto* dense = dynamic_cast<nn::DenseLayer*>(&net.layer(0));
  ASSERT_NE(dense, nullptr);
  const std::uint64_t gen0 = dense->weights_generation();

  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(64, 10, 80), opts);
  ASSERT_TRUE(dense->has_quantized());

  dense->mutable_weights()[0] += 0.5;
  EXPECT_FALSE(dense->has_quantized());
  EXPECT_EQ(dense->precision(), nn::Precision::kFp32);
  EXPECT_GT(dense->weights_generation(), gen0);
}

// Saving is a read-only walk: it must not perturb the quantized payloads.
TEST(QuantizedNetwork, SaveWeightsKeepsServingQuantized) {
  nn::Network net = small_net(81);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(64, 10, 82), opts);
  const Tensor x = gaussian_batch(4, 10, 83);
  const Tensor before = net.predict(x);

  std::stringstream ss;
  net.save_weights(ss);
  EXPECT_EQ(net.precision(), nn::Precision::kInt8);
  const Tensor after = net.predict(x);
  EXPECT_EQ(std::memcmp(before.data(), after.data(), before.size() * sizeof(double)),
            0);
}

TEST(QuantizedNetwork, TrainingDropsToFp32MasterWeights) {
  nn::Network net = small_net(67);
  nn::QuantizationOptions opts;
  opts.probe_kernels = false;
  nn::quantize_network(net, gaussian_batch(64, 10, 68), opts);

  nn::Dataset data;
  data.x = gaussian_batch(32, 10, 69);
  data.y = gaussian_batch(32, 3, 70);
  nn::TrainOptions topt;
  topt.epochs = 2;
  // Must not trip the int8-cannot-train guard: train_surrogate forces fp32.
  const nn::TrainedSurrogate ts = nn::train_surrogate(net, data, topt);
  EXPECT_EQ(ts.net.precision(), nn::Precision::kFp32);
  EXPECT_GT(ts.result.epochs_run, 0u);
}

// ------------------------------------------------------- NAS precision axis

TEST(NasPrecision, EvaluateCandidatePicksInt8WhenFeasible) {
  nas::SearchTask task;
  task.data.x = gaussian_batch(48, 6, 71);
  task.data.y = gaussian_batch(48, 2, 72);
  task.evaluate_quality = [](const nas::PipelineModel&) { return std::vector<double>{0.05}; };
  task.quality_bound = 0.1;
  task.train.epochs = 2;
  task.search_precision = true;
  task.quant.probe_kernels = false;

  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  const nas::PipelineModel pm =
      nas::evaluate_candidate(task, spec, nullptr, task.data, Rng(73));
  // Both modes hit the bound; int8 must win on modeled time.
  EXPECT_EQ(pm.precision, nn::Precision::kInt8);
  EXPECT_EQ(pm.surrogate.net.precision(), nn::Precision::kInt8);
}

TEST(NasPrecision, StaysFp32WhenQuantizedInfeasible) {
  nas::SearchTask task;
  task.data.x = gaussian_batch(48, 6, 74);
  task.data.y = gaussian_batch(48, 2, 75);
  // Quality oracle that rejects quantized candidates only.
  task.evaluate_quality = [](const nas::PipelineModel& pm) {
    return std::vector<double>{pm.precision == nn::Precision::kInt8 ? 0.9 : 0.05};
  };
  task.quality_bound = 0.1;
  task.train.epochs = 2;
  task.search_precision = true;
  task.quant.probe_kernels = false;

  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  const nas::PipelineModel pm =
      nas::evaluate_candidate(task, spec, nullptr, task.data, Rng(76));
  EXPECT_EQ(pm.precision, nn::Precision::kFp32);
  EXPECT_EQ(pm.surrogate.net.precision(), nn::Precision::kFp32);
}

TEST(NasPrecision, StaysFp32WhenInt8MissesCostMoreThanItSaves) {
  nas::SearchTask task;
  task.data.x = gaussian_batch(48, 6, 74);
  task.data.y = gaussian_batch(48, 2, 75);
  // Both modes are feasible (mean f_e 0.05 and 0.1), but int8 misses one
  // validation problem of two at mu, and each miss costs a 1 ms exact run.
  task.evaluate_quality = [](const nas::PipelineModel& pm) {
    return pm.precision == nn::Precision::kInt8 ? std::vector<double>{0.05, 0.15}
                                                : std::vector<double>{0.05, 0.05};
  };
  task.quality_bound = 0.1;
  task.exact_seconds = 1e-3;
  task.train.epochs = 2;
  task.search_precision = true;
  task.quant.probe_kernels = false;

  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  const nas::PipelineModel pm =
      nas::evaluate_candidate(task, spec, nullptr, task.data, Rng(76));
  EXPECT_EQ(pm.precision, nn::Precision::kFp32);
  EXPECT_EQ(pm.hit_share, 1.0);

  // With no exact region to pay for, the cheaper int8 mode wins as before.
  task.exact_seconds = 0.0;
  EXPECT_EQ(nas::evaluate_candidate(task, spec, nullptr, task.data, Rng(76)).precision,
            nn::Precision::kInt8);
}

TEST(NasPrecision, TrainFnEmitsQuantizedCandidate) {
  nn::Dataset data;
  data.x = gaussian_batch(40, 6, 77);
  data.y = gaussian_batch(40, 2, 78);
  nn::TrainOptions topt;
  topt.epochs = 2;
  nn::QuantizationOptions qopts;
  qopts.probe_kernels = false;
  const auto train_fn = nas::make_precision_train_fn(topt, qopts, /*quality_bound=*/10.0);

  nn::TrainedSurrogate active = nn::train_surrogate(small_net(79, 6, 2), data, topt);
  const nn::TrainedSurrogate cand = train_fn(active, data);
  EXPECT_EQ(cand.net.precision(), nn::Precision::kInt8);
}

// -------------------------------------------- Rollout of quantized models

constexpr std::size_t kIn = 4, kOut = 2;

Tensor teacher_row(const Tensor& in) {
  Tensor out({1, kOut});
  double sum = 0.0, alt = 0.0;
  for (std::size_t i = 0; i < kIn; ++i) {
    sum += in[i];
    alt += (i % 2 == 0 ? 1.0 : -1.0) * in[i];
  }
  out[0] = 0.5 * sum;
  out[1] = 0.25 * alt;
  return out;
}

/// Hand-built exact linear model: fp32 output equals the teacher, so the
/// quantized copy sits within quantization error of it.
std::shared_ptr<runtime::ServableModel> exact_model() {
  Rng rng(83);
  auto dense = std::make_unique<nn::DenseLayer>(kIn, kOut, rng);
  Tensor& w = dense->mutable_weights();
  for (std::size_t i = 0; i < kIn; ++i) {
    w.at(i, 0) = 0.5;
    w.at(i, 1) = (i % 2 == 0 ? 0.25 : -0.25);
  }
  dense->mutable_bias().fill(0.0);
  nn::Network net;
  net.add(std::move(dense));
  auto m = std::make_shared<runtime::ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  m->qoi_check = [](const Tensor& in, const Tensor& out) {
    const Tensor want = teacher_row(in);
    double err = 0.0, den = 0.0;
    for (std::size_t i = 0; i < kOut; ++i) {
      err += (out[i] - want[i]) * (out[i] - want[i]);
      den += want[i] * want[i];
    }
    return std::sqrt(err) <= 0.2 * std::max(1.0, std::sqrt(den));
  };
  return m;
}

runtime::OrchestratorOptions inline_opts() {
  runtime::OrchestratorOptions opts;
  opts.max_batch = 1;
  opts.batch_flusher = false;
  return opts;
}

runtime::RolloutOptions tiny_rollout() {
  runtime::RolloutOptions o;
  o.shadow_rows = 4;
  o.shadow_margin = 0.0;
  o.canary_rows = 4;
  o.canary_min_samples = 2;
  o.canary_fraction = 1.0;
  o.canary_max_miss = 0.25;
  o.stage_timeout_seconds = 60.0;
  return o;
}

Tensor request_row(Rng& rng) {
  Tensor row({1, kIn});
  for (std::size_t i = 0; i < kIn; ++i) row[i] = rng.uniform(-1.0, 1.0);
  return row;
}

TEST(QuantizedRollout, CalibratedCandidatePromotes) {
  runtime::Orchestrator orc(runtime::DeviceModel{}, inline_opts());
  orc.set_model("m", exact_model());

  Rng rng(89);
  Tensor calib({64, kIn});
  for (std::size_t i = 0; i < calib.size(); ++i) calib[i] = rng.uniform(-1.0, 1.0);
  nn::QuantizationOptions qopts;
  qopts.probe_kernels = false;
  auto cand = std::make_shared<runtime::ServableModel>(
      runtime::quantized_servable(*exact_model(), calib, qopts));
  ASSERT_EQ(cand->surrogate.net.precision(), nn::Precision::kInt8);

  const std::uint64_t v2 = orc.install_candidate("m", cand, nullptr, "quantize");
  ASSERT_TRUE(orc.begin_rollout("m", v2, tiny_rollout()).is_ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(orc.run_model_batched("m", request_row(rng)).get().is_ok());
  }
  const auto snap = orc.rollout_progress("m");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, runtime::RolloutState::kPromoted);
  EXPECT_EQ(orc.registry().active_id("m"), v2);
  // The promoted serving path is now int8.
  EXPECT_EQ(orc.active_model("m")->model->surrogate.net.precision(),
            nn::Precision::kInt8);
}

TEST(QuantizedRollout, MisCalibratedCandidateRollsBack) {
  runtime::Orchestrator orc(runtime::DeviceModel{}, inline_opts());
  orc.set_model("m", exact_model());

  // Deliberately mis-calibrated: activation scale 1000x too large crushes
  // every input to the zero code, so outputs are garbage.
  auto bad = std::make_shared<runtime::ServableModel>(*exact_model());
  nn::QuantizationOptions qopts;
  qopts.probe_kernels = false;
  auto* dense = dynamic_cast<nn::DenseLayer*>(&bad->surrogate.net.layer(0));
  ASSERT_NE(dense, nullptr);
  dense->set_quantized(nn::build_quantized_dense(
      dense->weights(), quant::QuantParams{1000.0, 0}, qopts));

  const std::uint64_t v2 = orc.install_candidate("m", bad, nullptr, "quantize");
  ASSERT_TRUE(orc.begin_rollout("m", v2, tiny_rollout()).is_ok());
  Rng rng(97);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(orc.run_model_batched("m", request_row(rng)).get().is_ok());
  }
  const auto snap = orc.rollout_progress("m");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, runtime::RolloutState::kRolledBack);
  EXPECT_EQ(orc.registry().active_id("m"), 1u);
  EXPECT_EQ(orc.active_model("m")->model->surrogate.net.precision(),
            nn::Precision::kFp32);
}

// DeploymentPackage::build(..., QuantizeSpec) calibrates inside packaging.
TEST(QuantizedRollout, DeploymentPackageQuantizesInsideBuild) {
  Rng rng(101);
  Tensor training({64, kIn});
  for (std::size_t i = 0; i < training.size(); ++i) training[i] = rng.uniform(-1.0, 1.0);

  runtime::QuantizeSpec spec;
  spec.enabled = true;
  spec.options.probe_kernels = false;
  const runtime::DeploymentPackage pkg = runtime::DeploymentPackage::build(
      "m", *exact_model(), training, spec);
  ASSERT_NE(pkg.model, nullptr);
  EXPECT_EQ(pkg.model->surrogate.net.precision(), nn::Precision::kInt8);
  EXPECT_NE(pkg.reference, nullptr);

  // And the package deploys + serves like any other.
  runtime::Orchestrator orc(runtime::DeviceModel{}, inline_opts());
  orc.deploy(pkg);
  const auto r = orc.run_model_batched("m", request_row(rng)).get();
  ASSERT_TRUE(r.is_ok());
  for (const double v : r.value().flat()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace ahn
