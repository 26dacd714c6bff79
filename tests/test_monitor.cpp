// Tests for the model-health monitoring layer (obs/monitor.hpp): P² quantile
// accuracy, the streaming feature sketch, drift scoring, trend monitors,
// alert fan-out, and the per-model monitor fed from concurrent serving
// threads. Runs under TSan in CI alongside test_obs.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nn/topology.hpp"
#include "obs/monitor.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace ahn;

// ------------------------------------------------------------- P2Quantile

TEST(P2Quantile, ExactForFirstFiveSamples) {
  obs::P2Quantile med(0.5);
  const double samples[] = {9.0, 1.0, 5.0, 3.0, 7.0};
  med.observe(samples[0]);
  EXPECT_DOUBLE_EQ(med.value(), 9.0);
  for (int i = 1; i < 5; ++i) med.observe(samples[i]);
  EXPECT_DOUBLE_EQ(med.value(), 5.0);  // exact median of {1,3,5,7,9}
}

TEST(P2Quantile, TracksQuantilesOfKnownDistributions) {
  // Uniform(0, 1): q-th quantile is q. Gaussian(0, 1): median 0.
  Rng rng(7);
  for (const double q : {0.1, 0.5, 0.9}) {
    obs::P2Quantile est(q);
    for (int i = 0; i < 20000; ++i) est.observe(rng.uniform());
    EXPECT_NEAR(est.value(), q, 0.02) << "quantile " << q;
  }
  obs::P2Quantile med(0.5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.gaussian();
    samples.push_back(v);
    med.observe(v);
  }
  EXPECT_NEAR(med.value(), percentile(std::move(samples), 50.0), 0.05);
}

TEST(P2Quantile, DropsNaN) {
  obs::P2Quantile est(0.5);
  est.observe(1.0);
  est.observe(std::nan(""));
  est.observe(3.0);
  EXPECT_EQ(est.count(), 2u);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);
}

// ----------------------------------------------------------- FeatureSketch

TEST(FeatureSketch, StreamingMomentsMatchBatchStatistics) {
  Rng rng(3);
  const std::size_t rows = 5000, features = 4;
  const Tensor data = Tensor::randn({rows, features}, rng);

  obs::FeatureSketch sketch(features);
  for (std::size_t r = 0; r < rows; ++r) sketch.observe(data.row(r));
  EXPECT_EQ(sketch.rows(), rows);

  for (std::size_t f = 0; f < features; ++f) {
    std::vector<double> col;
    col.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) col.push_back(data.at(r, f));
    const double mean = std::accumulate(col.begin(), col.end(), 0.0) /
                        static_cast<double>(rows);
    EXPECT_NEAR(sketch.mean(f), mean, 1e-12);
    EXPECT_NEAR(sketch.stddev(f), 1.0, 0.05);  // N(0,1) columns
    // Decile estimates agree with the sorted-sample reference.
    for (std::size_t i = 0; i < obs::FeatureSketch::kDeciles; ++i) {
      const double exact = percentile(col, 10.0 * static_cast<double>(i + 1));
      EXPECT_NEAR(sketch.decile(f, i), exact, 0.08)
          << "feature " << f << " decile " << i;
    }
    const obs::FeatureSummary s = sketch.summary(f);
    EXPECT_EQ(s.count, rows);
    EXPECT_LE(s.min, s.deciles[0]);
    EXPECT_GE(s.max, s.deciles[8]);
  }
}

TEST(FeatureSketch, AdoptsWidthFromFirstRowAndChecksLater) {
  obs::FeatureSketch sketch;
  const std::vector<double> row{1.0, 2.0, 3.0};
  sketch.observe(row);
  EXPECT_EQ(sketch.features(), 3u);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(sketch.observe(wrong), ahn::Error);
}

// ----------------------------------------------------------- DriftDetector

obs::FeatureSketch gaussian_reference(std::size_t features, std::size_t rows,
                                      unsigned long long seed) {
  Rng rng(seed);
  const Tensor data = Tensor::randn({rows, features}, rng);
  obs::FeatureSketch sketch(features);
  for (std::size_t r = 0; r < rows; ++r) sketch.observe(data.row(r));
  return sketch;
}

TEST(DriftDetector, InDistributionScoresLow) {
  auto ref = std::make_shared<obs::FeatureSketch>(gaussian_reference(3, 4000, 5));
  obs::DriftDetector det(ref);
  Rng rng(6);  // different stream, same distribution
  const Tensor live = Tensor::randn({2000, 3}, rng);
  for (std::size_t r = 0; r < live.rows(); ++r) det.observe(live.row(r));

  const obs::DriftReport rep = det.report();
  EXPECT_EQ(rep.live_rows, 2000u);
  EXPECT_LT(rep.score, 0.5);
}

TEST(DriftDetector, DetectsCovariateShiftOnTheRightFeature) {
  auto ref = std::make_shared<obs::FeatureSketch>(gaussian_reference(3, 4000, 5));
  obs::DriftDetector det(ref);
  Rng rng(6);
  Tensor live = Tensor::randn({2000, 3}, rng);
  for (std::size_t r = 0; r < live.rows(); ++r) live.at(r, 1) += 3.0;  // shift f1
  for (std::size_t r = 0; r < live.rows(); ++r) det.observe(live.row(r));

  const obs::DriftReport rep = det.report();
  EXPECT_EQ(rep.worst_feature, 1u);
  // Mean shift alone contributes ~3 sigma; PSI adds on top.
  EXPECT_GT(rep.score, 3.0);
  EXPECT_GT(rep.features[1].mean_shift, 2.5);
  EXPECT_GT(rep.features[1].psi, rep.features[0].psi);
}

TEST(DriftDetector, SilentBelowMinSamples) {
  auto ref = std::make_shared<obs::FeatureSketch>(gaussian_reference(2, 1000, 5));
  obs::DriftOptions opts;
  opts.min_samples = 64;
  obs::DriftDetector det(ref, opts);
  std::vector<double> far{100.0, 100.0};
  for (int i = 0; i < 63; ++i) det.observe(far);
  EXPECT_DOUBLE_EQ(det.report().score, 0.0);  // gated
  det.observe(far);
  EXPECT_GT(det.report().score, 10.0);  // 64th sample releases the gate
}

// --------------------------------------------------------------- RateTrend

TEST(RateTrend, EwmaAndWindowTrackEventRate) {
  obs::TrendOptions opts;
  opts.ewma_alpha = 0.1;
  opts.window = 10;
  obs::RateTrend trend(opts);
  EXPECT_DOUBLE_EQ(trend.window_rate(), 0.0);

  for (int i = 0; i < 200; ++i) {
    const bool event = i >= 150;  // last quarter all events
    trend.record(event);
    trend.record_window(event);
  }
  EXPECT_EQ(trend.total(), 200u);
  EXPECT_EQ(trend.events(), 50u);
  EXPECT_GT(trend.ewma(), 0.9);            // converged to the recent rate
  EXPECT_DOUBLE_EQ(trend.window_rate(), 1.0);  // last 10 all events
}

TEST(RateTrend, LockFreeRecordIsThreadSafe) {
  obs::RateTrend trend;
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trend] {
      for (int i = 0; i < kPerThread; ++i) trend.record(i % 2 == 0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(trend.total(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(trend.events(), static_cast<std::uint64_t>(kThreads * kPerThread / 2));
  EXPECT_GT(trend.ewma(), 0.0);
  EXPECT_LT(trend.ewma(), 1.0);
}

// --------------------------------------------------------------- AlertSink

TEST(AlertSink, StampsCountsAndDeliversToEverySubscriber) {
  obs::AlertSink sink;
  std::vector<obs::Alert> delivered;
  int second = 0;
  sink.add_callback([&delivered](const obs::Alert& a) { delivered.push_back(a); });
  sink.add_callback([&second](const obs::Alert&) { ++second; });

  obs::Alert a;
  a.kind = obs::AlertKind::kQoiDegraded;
  a.model = "m";
  a.value = 0.4;
  a.threshold = 0.3;
  sink.raise(a);
  a.kind = obs::AlertKind::kDriftDetected;
  sink.raise(a);

  EXPECT_EQ(sink.raised_total(), 2u);
  EXPECT_EQ(sink.raised(obs::AlertKind::kQoiDegraded), 1u);
  EXPECT_EQ(sink.raised(obs::AlertKind::kDriftDetected), 1u);
  EXPECT_EQ(sink.raised(obs::AlertKind::kBreakerOpen), 0u);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].sequence, 1u);
  EXPECT_EQ(delivered[1].sequence, 2u);
  EXPECT_EQ(second, 2);
}

TEST(RateTrend, ResetForgetsAllHistory) {
  obs::TrendOptions opts;
  opts.window = 4;
  obs::RateTrend trend(opts);
  for (int i = 0; i < 50; ++i) {
    trend.record(true);
    trend.record_window(true);
  }
  ASSERT_GT(trend.ewma(), 0.9);
  ASSERT_DOUBLE_EQ(trend.window_rate(), 1.0);

  trend.reset();
  EXPECT_DOUBLE_EQ(trend.ewma(), 0.0);
  EXPECT_DOUBLE_EQ(trend.window_rate(), 0.0);
  EXPECT_EQ(trend.total(), 0u);
  EXPECT_EQ(trend.events(), 0u);

  // Post-reset recording starts from scratch (no stale window slots).
  trend.record(false);
  trend.record_window(false);
  EXPECT_EQ(trend.total(), 1u);
  EXPECT_DOUBLE_EQ(trend.window_rate(), 0.0);
}

TEST(AlertSink, RingIsBoundedOldestFirst) {
  obs::AlertSink sink(/*ring_capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    obs::Alert a;
    a.model = "m" + std::to_string(i);
    sink.raise(a);
  }
  const std::vector<obs::Alert> recent = sink.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].model, "m2");
  EXPECT_EQ(recent[2].model, "m4");
  EXPECT_EQ(sink.raised_total(), 5u);
}

// ------------------------------------------------------------ ModelMonitor

obs::MonitorOptions every_row_options() {
  obs::MonitorOptions opts;
  opts.sample_every = 1;
  opts.drift_check_every = 1;
  return opts;
}

TEST(ModelMonitor, DriftAlertFiresOnceAndRearmsAfterRecovery) {
  obs::AlertSink sink;
  obs::ModelMonitor mon("m", every_row_options(), &sink);
  mon.set_reference(
      std::make_shared<obs::FeatureSketch>(gaussian_reference(2, 2000, 5)));

  Rng rng(9);
  // In-distribution traffic: no alert.
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row{rng.gaussian(), rng.gaussian()};
    mon.record_request(row, /*qoi_ok=*/true);
  }
  EXPECT_EQ(sink.raised(obs::AlertKind::kDriftDetected), 0u);
  obs::ModelHealth h = mon.health();
  EXPECT_TRUE(h.has_reference);
  EXPECT_FALSE(h.drift_alert);
  EXPECT_FALSE(h.retrain_recommended);
  EXPECT_LT(h.drift_score, 2.0);

  // Shifted traffic: the edge-trigger raises exactly one alert.
  for (int i = 0; i < 600; ++i) {
    const std::vector<double> row{rng.gaussian() + 4.0, rng.gaussian()};
    mon.record_request(row, /*qoi_ok=*/true);
  }
  EXPECT_EQ(sink.raised(obs::AlertKind::kDriftDetected), 1u);
  h = mon.health();
  EXPECT_TRUE(h.drift_alert);
  EXPECT_TRUE(h.retrain_recommended);
  EXPECT_GE(h.drift_score, 2.0);
  EXPECT_EQ(h.drift_worst_feature, 0u);

  // Re-deploying (fresh reference) resets the live state and the trigger.
  mon.set_reference(
      std::make_shared<obs::FeatureSketch>(gaussian_reference(2, 2000, 5)));
  h = mon.health();
  EXPECT_FALSE(h.drift_alert);
  EXPECT_EQ(h.rows_sampled, 0u);
}

TEST(ModelMonitor, QoiDegradationRaisesAndRecovers) {
  obs::MonitorOptions opts = every_row_options();
  opts.qoi_alert_rate = 0.3;
  opts.qoi_trend.ewma_alpha = 0.2;
  opts.qoi_trend.min_samples = 16;
  obs::AlertSink sink;
  obs::ModelMonitor mon("m", opts, &sink);  // no reference: QoI only

  const std::vector<double> row{0.0};
  for (int i = 0; i < 50; ++i) mon.record_request(row, /*qoi_ok=*/true);
  EXPECT_EQ(sink.raised(obs::AlertKind::kQoiDegraded), 0u);

  for (int i = 0; i < 50; ++i) mon.record_request(row, /*qoi_ok=*/false);
  EXPECT_EQ(sink.raised(obs::AlertKind::kQoiDegraded), 1u);
  obs::ModelHealth h = mon.health();
  EXPECT_TRUE(h.qoi_alert);
  EXPECT_TRUE(h.retrain_recommended);
  EXPECT_GT(h.qoi_miss_ewma, 0.3);
  EXPECT_GE(h.qoi_miss_window_rate, 0.5);  // 50 misses in a 100-sample window

  // Recovery re-arms the trigger; a second degradation raises again.
  for (int i = 0; i < 100; ++i) mon.record_request(row, /*qoi_ok=*/true);
  EXPECT_FALSE(mon.health().qoi_alert);
  for (int i = 0; i < 100; ++i) mon.record_request(row, /*qoi_ok=*/false);
  EXPECT_EQ(sink.raised(obs::AlertKind::kQoiDegraded), 2u);
}

TEST(ModelMonitor, BreakerOpenHookRaisesAlert) {
  obs::AlertSink sink;
  obs::ModelMonitor mon("m", obs::MonitorOptions{}, &sink);
  mon.record_breaker_open(/*window_fallback_rate=*/0.75, /*trip_threshold=*/0.5);
  EXPECT_EQ(sink.raised(obs::AlertKind::kBreakerOpen), 1u);
  const std::vector<obs::Alert> recent = sink.recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_DOUBLE_EQ(recent[0].value, 0.75);
  EXPECT_DOUBLE_EQ(recent[0].threshold, 0.5);
  EXPECT_EQ(recent[0].model, "m");
}

TEST(ModelMonitor, ConcurrentRecordingIsSafeAndCounted) {
  obs::AlertSink sink;
  obs::ModelMonitor mon("m", obs::MonitorOptions{}, &sink);  // sample_every=16
  mon.set_reference(
      std::make_shared<obs::FeatureSketch>(gaussian_reference(2, 500, 5)));

  constexpr int kThreads = 4, kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mon, t] {
      Rng rng(100 + static_cast<unsigned long long>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const std::vector<double> row{rng.gaussian(), rng.gaussian()};
        mon.record_request(row, /*qoi_ok=*/i % 7 != 0);
      }
    });
  }
  for (auto& th : threads) th.join();

  const obs::ModelHealth h = mon.health();
  EXPECT_EQ(h.requests_observed, static_cast<std::uint64_t>(kThreads * kPerThread));
  // The sampler admits exactly 1 in sample_every ticks across all threads.
  EXPECT_EQ(h.rows_sampled, static_cast<std::uint64_t>(kThreads * kPerThread / 16));
  EXPECT_FALSE(h.drift_alert);  // in-distribution traffic
}

// ------------------------------------------- End-to-end through the runtime

std::shared_ptr<runtime::ServableModel> tiny_model(std::size_t in, std::size_t out) {
  Rng rng(11);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  nn::Network net = nn::build_surrogate(spec, in, out, rng);
  auto m = std::make_shared<runtime::ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

TEST(OrchestratorHealth, DeployServeShiftedTrafficReportsDrift) {
  Rng rng(3);
  const Tensor training = Tensor::randn({1000, 4}, rng);

  runtime::OrchestratorOptions opts;
  opts.monitor.sample_every = 1;
  opts.tracer = nullptr;  // global tracer is fine here
  runtime::Orchestrator orc(runtime::DeviceModel{}, opts);
  orc.deploy(runtime::DeploymentPackage::build("m", tiny_model(4, 2), training));

  // In-distribution serving stays quiet.
  std::vector<std::future<Result<Tensor>>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(orc.run_model_batched("m", Tensor::randn({1, 4}, rng)));
  }
  orc.flush_batches();
  for (auto& f : futures) ASSERT_TRUE(f.get().is_ok());
  obs::ModelHealth h = orc.model_health("m");
  EXPECT_TRUE(h.has_reference);
  EXPECT_FALSE(h.drift_alert);
  EXPECT_EQ(h.breaker_state, "closed");
  EXPECT_GT(h.latency_p95, 0.0);

  // Shifted serving crosses the threshold and recommends retraining.
  futures.clear();
  for (int i = 0; i < 400; ++i) {
    Tensor row = Tensor::randn({1, 4}, rng);
    for (double& v : row.row(0)) v += 3.0;
    futures.push_back(orc.run_model_batched("m", std::move(row)));
  }
  orc.flush_batches();
  for (auto& f : futures) ASSERT_TRUE(f.get().is_ok());
  h = orc.model_health("m");
  EXPECT_TRUE(h.drift_alert);
  EXPECT_TRUE(h.retrain_recommended);
  EXPECT_GE(h.drift_score, opts.monitor.drift_threshold);
  EXPECT_GE(orc.alerts().raised(obs::AlertKind::kDriftDetected), 1u);
  orc.drain();
}

TEST(OrchestratorHealth, BreakerTransitionsDriveGaugeAndAlert) {
  // A surrogate whose outputs always miss QoI, with a fallback: the breaker
  // trips, the state gauge follows, and a breaker_open alert is raised.
  auto m = tiny_model(2, 1);
  m->qoi_check = [](const Tensor&, const Tensor&) { return false; };
  m->fallback = [](const Tensor& row_in) {
    Tensor exact({1, 1});
    exact.at(0, 0) = row_in.at(0, 0);
    return exact;
  };

  runtime::OrchestratorOptions opts;
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.trip_threshold = 0.5;
  opts.breaker.cooldown_seconds = 1e9;  // stays open for the test's lifetime
  runtime::Orchestrator orc(runtime::DeviceModel{}, opts);
  orc.set_model("m", std::move(m));

  Rng rng(4);
  std::vector<std::future<Result<Tensor>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(orc.run_model_batched("m", Tensor::randn({1, 2}, rng)));
    orc.flush_batches();
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().is_ok());

  const obs::ModelHealth h = orc.model_health("m");
  EXPECT_EQ(h.breaker_state, "open");
  EXPECT_GE(h.breaker_trips, 1u);
  EXPECT_GE(orc.alerts().raised(obs::AlertKind::kBreakerOpen), 1u);
  const obs::RegistrySnapshot snap = orc.stats().metrics().snapshot();
  const auto it = snap.gauges.find("serving.breaker_state{model=\"m\"}");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_DOUBLE_EQ(it->second, 1.0);  // open
  orc.drain();
}

TEST(OrchestratorHealth, QueueDepthGaugeTracksPendingRows) {
  runtime::OrchestratorOptions opts;
  opts.max_batch = 64;              // larger than we submit: rows stay queued
  opts.batch_flusher = false;       // no flusher: deterministic depth
  runtime::Orchestrator orc(runtime::DeviceModel{}, opts);
  orc.set_model("m", tiny_model(2, 1));

  Rng rng(4);
  std::vector<std::future<Result<Tensor>>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(orc.run_model_batched("m", Tensor::randn({1, 2}, rng)));
  }
  obs::RegistrySnapshot snap = orc.stats().metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("serving.batch_queue_depth"), 5.0);

  orc.flush_batches();
  for (auto& f : futures) ASSERT_TRUE(f.get().is_ok());
  snap = orc.stats().metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("serving.batch_queue_depth"), 0.0);
  orc.drain();
}

TEST(DeploymentPackageTest, BuildSketchesTrainingInputs) {
  Rng rng(3);
  const Tensor training = Tensor::randn({500, 3}, rng);
  const runtime::DeploymentPackage pkg =
      runtime::DeploymentPackage::build("m", tiny_model(3, 1), training);
  ASSERT_NE(pkg.reference, nullptr);
  EXPECT_EQ(pkg.reference->rows(), 500u);
  EXPECT_EQ(pkg.reference->features(), 3u);
  EXPECT_NEAR(pkg.reference->mean(0), 0.0, 0.2);
  EXPECT_NEAR(pkg.reference->stddev(0), 1.0, 0.2);
}

}  // namespace
