// Tests for the serving-runtime reliability layer (docs/RELIABILITY.md):
// the Status/Result taxonomy, the deterministic FaultInjector, the QoI
// circuit breaker state machine, per-request deadlines, transient-fault
// retries, one injected clock behind every time-based decision, graceful
// drain/shutdown, and the no-hung-future contract under injected faults +
// concurrent shutdown.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "nn/topology.hpp"
#include "runtime/circuit_breaker.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/orchestrator.hpp"

namespace ahn::runtime {
namespace {

// ------------------------------------------------------------ Status/Result

TEST(Status, CodesNamesAndMessages) {
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_EQ(Status::ok().code(), StatusCode::kOk);
  const Status s(StatusCode::kDeadlineExceeded, "too slow");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "DEADLINE_EXCEEDED: too slow");
  EXPECT_STREQ(status_code_name(StatusCode::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_STREQ(status_code_name(StatusCode::kQoIRejected), "QOI_REJECTED");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(0), 7);

  Result<int> bad(Status(StatusCode::kNotFound, "nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW((void)bad.value(), Error);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, DeterministicFromSeed) {
  FaultSpec spec;
  spec.transient_prob = 0.3;
  spec.latency_spike_prob = 0.3;
  FaultInjector a(spec, /*seed=*/123);
  FaultInjector b(spec, /*seed=*/123);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.draw_transient(ServingPhase::kFetch),
              b.draw_transient(ServingPhase::kFetch));
    EXPECT_EQ(a.draw_latency_spike(ServingPhase::kRun),
              b.draw_latency_spike(ServingPhase::kRun));
  }
  EXPECT_EQ(a.injected(FaultKind::kTransient), b.injected(FaultKind::kTransient));
  EXPECT_GT(a.total_injected(), 0u);
}

TEST(FaultInjector, SpecIsRuntimeMutable) {
  FaultInjector inj(FaultSpec{}, 7);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(inj.draw_transient(ServingPhase::kRun));

  FaultSpec storm;
  storm.transient_prob = 1.0;
  storm.nan_prob = 1.0;
  storm.batch_drop_prob = 1.0;
  inj.set_spec(storm);
  EXPECT_TRUE(inj.draw_transient(ServingPhase::kRun));
  EXPECT_TRUE(inj.draw_nan_corruption());
  EXPECT_TRUE(inj.draw_batch_drop());

  inj.set_spec(FaultSpec{});  // storm over
  EXPECT_FALSE(inj.draw_transient(ServingPhase::kRun));
  EXPECT_EQ(inj.injected(FaultKind::kTransient), 1u);
  EXPECT_EQ(inj.injected(FaultKind::kNanCorruption), 1u);
  EXPECT_EQ(inj.injected(FaultKind::kBatchDrop), 1u);
}

// ------------------------------------------------------------ CircuitBreaker

CircuitBreakerOptions fast_breaker() {
  CircuitBreakerOptions o;
  o.window = 8;
  o.min_samples = 4;
  o.trip_threshold = 0.5;
  o.cooldown_seconds = 1.0;
  o.half_open_probes = 2;
  return o;
}

Clock fake(const std::atomic<double>* clock) {
  return [clock] { return clock->load(); };
}

TEST(CircuitBreaker, TripsOnFallbackRateAndRecoversViaProbes) {
  std::atomic<double> clock{0.0};
  ServingStats stats;
  CircuitBreaker br(fast_breaker(), &stats, fake(&clock));
  EXPECT_EQ(br.state(), BreakerState::kClosed);

  // Four straight misses: rate 1.0 over >= min_samples trips the breaker.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(br.admit(), CircuitBreaker::Route::kSurrogate);
    br.record_outcome(false);
  }
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 1u);
  EXPECT_EQ(stats.breaker_transitions("closed", "open"), 1u);

  // During cool-down everything routes to the original-code path.
  clock.store(0.5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(br.admit(), CircuitBreaker::Route::kOriginal);
  }
  EXPECT_EQ(br.state(), BreakerState::kOpen);

  // Cool-down elapsed: half-open admits exactly `half_open_probes` probes.
  clock.store(1.5);
  EXPECT_EQ(br.admit(), CircuitBreaker::Route::kSurrogate);  // probe 1
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(br.admit(), CircuitBreaker::Route::kSurrogate);  // probe 2
  EXPECT_EQ(br.admit(), CircuitBreaker::Route::kOriginal);   // saturated
  br.record_outcome(true);
  br.record_outcome(true);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(stats.breaker_transitions("open", "half_open"), 1u);
  EXPECT_EQ(stats.breaker_transitions("half_open", "closed"), 1u);

  // The window restarted: old misses must not re-trip immediately.
  EXPECT_DOUBLE_EQ(br.window_fallback_rate(), 0.0);
  br.record_outcome(true);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ProbeMissReopens) {
  std::atomic<double> clock{0.0};
  CircuitBreaker br(fast_breaker(), nullptr, fake(&clock));
  for (int i = 0; i < 4; ++i) {
    (void)br.admit();
    br.record_outcome(false);
  }
  ASSERT_EQ(br.state(), BreakerState::kOpen);

  clock.store(2.0);
  EXPECT_EQ(br.admit(), CircuitBreaker::Route::kSurrogate);  // probe
  br.record_outcome(false);                                  // probe misses
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 2u);
  // The fresh OPEN dwell starts at the reopen time.
  clock.store(2.5);
  EXPECT_EQ(br.admit(), CircuitBreaker::Route::kOriginal);
}

// --------------------------------------------------------------- test rig

std::shared_ptr<ServableModel> rig_model(
    std::function<bool(const Tensor&, const Tensor&)> qoi_check = nullptr,
    std::function<Tensor(const Tensor&)> fallback = nullptr) {
  Rng rng(1);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 8;
  nn::Network net = nn::build_surrogate(spec, 4, 2, rng);
  auto m = std::make_shared<ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  m->qoi_check = std::move(qoi_check);
  m->fallback = std::move(fallback);
  return m;
}

Tensor request_row() { return Tensor({1, 4}, {0.1, 0.2, 0.3, 0.4}); }

/// The "original code" result: a row the surrogate would never produce.
Tensor exact_row(const Tensor&) { return Tensor({1, 2}, {42.0, 42.0}); }

OrchestratorOptions inline_opts() {
  OrchestratorOptions opts;
  opts.max_batch = 1;               // every submit executes inline
  opts.batch_flusher = false;       // no flusher thread
  opts.retry.initial_backoff_seconds = 1e-6;
  return opts;
}

// ------------------------------------------------------- deadlines & retries

TEST(Reliability, ExpiredDeadlineIsNotCoalesced) {
  OrchestratorOptions opts;
  opts.max_batch = 32;
  opts.batch_flusher = false;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model());

  auto dead = orc.run_model_batched("m", request_row(), RequestOptions::within(-1e-3));
  // Resolved immediately, without reaching a batch.
  EXPECT_EQ(dead.get().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(orc.stats().batches_executed(), 0u);
  EXPECT_EQ(orc.stats().deadline_misses(), 1u);

  // A request that expires while *pending* resolves at dispatch time and the
  // live request in the same batch is still served.
  auto expiring = orc.run_model_batched("m", request_row(), RequestOptions::within(1e-3));
  auto live = orc.run_model_batched("m", request_row());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  orc.flush_batches();
  EXPECT_EQ(expiring.get().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(live.get().is_ok());
  const ServingStatsSnapshot snap = orc.stats().snapshot();
  EXPECT_EQ(snap.deadline_misses, 2u);
  const obs::HistogramSnapshot sizes =
      orc.stats().metrics().snapshot().histograms.at("serving.batch_rows");
  EXPECT_EQ(sizes.count, 1u);  // only the live row ran
  EXPECT_EQ(sizes.buckets[obs::LatencyHistogram::bucket_index(1.0)], 1u);
}

TEST(Reliability, TransientFaultsExhaustRetryBudget) {
  OrchestratorOptions opts = inline_opts();
  opts.retry.max_attempts = 3;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model());
  FaultSpec always_fail;
  always_fail.transient_prob = 1.0;
  orc.set_fault_injector(std::make_shared<FaultInjector>(always_fail, 9));

  auto f = orc.run_model_batched("m", request_row());
  EXPECT_EQ(f.get().code(), StatusCode::kTransientFailure);
  EXPECT_EQ(orc.stats().retries(), 2u);  // attempts - 1
  EXPECT_EQ(orc.stats().metrics().snapshot().counters.at("serving.fault.transient"),
            3u);  // one per attempt

  // The sync path shares the retry machinery.
  orc.put_tensor("x", request_row());
  EXPECT_EQ(orc.run_model("m", "x", "y").code(), StatusCode::kTransientFailure);
}

TEST(Reliability, RetriesRecoverFromIntermittentFaults) {
  OrchestratorOptions opts = inline_opts();
  opts.retry.max_attempts = 10;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model());
  FaultSpec flaky;
  flaky.transient_prob = 0.1;  // ~34% of attempts lose a phase draw
  flaky.batch_drop_prob = 0.05;
  orc.set_fault_injector(std::make_shared<FaultInjector>(flaky, 77));

  for (int i = 0; i < 20; ++i) {
    auto f = orc.run_model_batched("m", request_row());
    EXPECT_TRUE(f.get().is_ok());  // 10 attempts make failure vanishing
  }
  EXPECT_EQ(orc.stats().requests_served(), 20u);
}

TEST(Reliability, LatencySpikeInflatesModeledPhase) {
  OrchestratorOptions opts = inline_opts();
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model());

  auto clean = orc.run_model_batched("m", request_row());
  ASSERT_TRUE(clean.get().is_ok());
  const double clean_p100 = orc.stats().latency_percentile("total", 100.0);

  FaultSpec spiky;
  spiky.latency_spike_prob = 1.0;
  spiky.latency_spike_seconds = 0.5;  // dwarfs the modeled microseconds
  orc.set_fault_injector(std::make_shared<FaultInjector>(spiky, 5));
  auto spiked = orc.run_model_batched("m", request_row());
  ASSERT_TRUE(spiked.get().is_ok());
  EXPECT_GT(orc.stats().latency_percentile("total", 100.0), clean_p100 + 0.4);
  EXPECT_GT(orc.stats().faults_injected(), 0u);
}

// ----------------------------------------------------------- QoI & breaker

TEST(Reliability, NanCorruptionRejectedWithoutFallback) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model());  // no qoi_check, no fallback
  FaultSpec poison;
  poison.nan_prob = 1.0;
  orc.set_fault_injector(std::make_shared<FaultInjector>(poison, 3));

  auto f = orc.run_model_batched("m", request_row());
  EXPECT_EQ(f.get().code(), StatusCode::kQoIRejected);
  EXPECT_EQ(orc.stats().qoi_fallbacks(), 1u);
}

TEST(Reliability, NanCorruptionFallsBackToOriginalCode) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(nullptr, exact_row));
  FaultSpec poison;
  poison.nan_prob = 1.0;
  orc.set_fault_injector(std::make_shared<FaultInjector>(poison, 3));

  auto f = orc.run_model_batched("m", request_row());
  Result<Tensor> r = f.get();
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ(r.value().at(0, 0), 42.0);  // exact path, not NaN
  EXPECT_EQ(orc.stats().qoi_fallbacks(), 1u);
}

// ------------------------------------------------------------- keyed path
// run_model serves its tensor through the same core as a micro-batch, so
// keyed requests keep the same §7.1 contract.

TEST(Reliability, KeyedNanRowRejectedWithoutFallback) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model());  // no qoi_check, no fallback
  FaultSpec poison;
  poison.nan_prob = 1.0;
  orc.set_fault_injector(std::make_shared<FaultInjector>(poison, 3));

  orc.put_tensor("x", request_row());
  EXPECT_EQ(orc.run_model("m", "x", "y").code(), StatusCode::kQoIRejected);
  EXPECT_FALSE(orc.has_tensor("y"));
}

TEST(Reliability, KeyedNanRowFallsBackToOriginalCode) {
  Orchestrator orc(DeviceModel{}, inline_opts());
  orc.set_model("m", rig_model(nullptr, exact_row));
  FaultSpec poison;
  poison.nan_prob = 1.0;
  orc.set_fault_injector(std::make_shared<FaultInjector>(poison, 3));

  orc.put_tensor("x", request_row());
  const std::uint64_t before = orc.stats().qoi_fallbacks();
  ASSERT_TRUE(orc.run_model("m", "x", "y").is_ok());
  const Tensor y = orc.get_tensor("y");
  const Tensor exact = exact_row(request_row());
  ASSERT_EQ(y.shape(), exact.shape());
  EXPECT_EQ(std::memcmp(y.data(), exact.data(), y.size() * sizeof(double)), 0);
  EXPECT_EQ(orc.stats().qoi_fallbacks(), before + 1);
}

TEST(Reliability, KeyedRowsOnAnOpenBreakerServeTheOriginalCode) {
  auto fake_clock = std::make_shared<std::atomic<double>>(0.0);
  OrchestratorOptions opts = inline_opts();
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.trip_threshold = 0.5;
  opts.breaker.cooldown_seconds = 1.0;
  opts.clock = [fake_clock] { return fake_clock->load(); };
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model([](const Tensor&, const Tensor&) { return false; },
                               exact_row));
  orc.put_tensor("x", Tensor({4, 4}, std::vector<double>(16, 0.5)));

  // Four keyed rows miss QoI: each falls back, and together they trip the
  // breaker.
  ASSERT_TRUE(orc.run_model("m", "x", "y").is_ok());
  EXPECT_EQ(orc.stats().qoi_fallbacks(), 4u);
  ASSERT_EQ(orc.breaker("m").state(), BreakerState::kOpen);
  const std::uint64_t batches = orc.stats().batches_executed();

  // Open breaker: the keyed tensor never reaches the surrogate, and every
  // row counts as a breaker fallback.
  ASSERT_TRUE(orc.run_model("m", "x", "z").is_ok());
  const Tensor z = orc.get_tensor("z");
  ASSERT_EQ(z.rows(), 4u);
  for (const double v : z.flat()) EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_EQ(orc.stats().breaker_fallbacks(), 4u);
  EXPECT_EQ(orc.stats().batches_executed(), batches);
}

TEST(Reliability, KeyedRowsReachSampleHookAndSlos) {
  OrchestratorOptions opts = inline_opts();
  obs::SloSpec avail;
  avail.name = "avail";
  avail.kind = obs::SloKind::kAvailability;
  opts.slos = {avail};
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model());
  std::atomic<int> hooked{0};
  orc.set_sample_hook([&](const std::string&, std::span<const double>, bool) { ++hooked; });

  orc.put_tensor("x", Tensor({3, 4}, std::vector<double>(12, 0.25)));
  ASSERT_TRUE(orc.run_model("m", "x", "y").is_ok());
  EXPECT_EQ(hooked.load(), 3);
  const std::vector<obs::SloStatus> slo = orc.slo_engine().status();
  ASSERT_EQ(slo.size(), 1u);
  EXPECT_EQ(slo[0].events, 3u);
  EXPECT_EQ(slo[0].bad_events, 0u);
}

// The acceptance-criteria lifecycle: injected QoI misses trip the breaker,
// cool-down traffic is served by the original-code path, and half-open
// probes restore surrogate serving once the faults stop.
TEST(Reliability, BreakerLifecycleUnderQoIFaults) {
  auto faulty = std::make_shared<std::atomic<bool>>(true);
  auto fake_clock = std::make_shared<std::atomic<double>>(0.0);

  OrchestratorOptions opts = inline_opts();
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.trip_threshold = 0.5;
  opts.breaker.cooldown_seconds = 1.0;
  opts.breaker.half_open_probes = 2;
  opts.clock = [fake_clock] { return fake_clock->load(); };
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model(
                         [faulty](const Tensor&, const Tensor&) {
                           return !faulty->load();  // miss while faulty
                         },
                         exact_row));

  // Phase 1 — fault storm: every served row misses QoI. Each request still
  // resolves OK (transparent per-request fallback), and the miss rate trips
  // the breaker.
  for (int i = 0; i < 4; ++i) {
    Result<Tensor> r = orc.run_model_batched("m", request_row()).get();
    ASSERT_TRUE(r.is_ok());
    EXPECT_DOUBLE_EQ(r.value().at(0, 0), 42.0);  // original-code result
  }
  EXPECT_EQ(orc.breaker("m").state(), BreakerState::kOpen);
  EXPECT_EQ(orc.stats().breaker_transitions("closed", "open"), 1u);
  EXPECT_EQ(orc.stats().qoi_fallbacks(), 4u);
  const std::uint64_t batches_during_storm = orc.stats().batches_executed();

  // Phase 2 — cool-down: requests route straight to the original code; the
  // surrogate sees no traffic at all.
  fake_clock->store(0.5);
  for (int i = 0; i < 6; ++i) {
    Result<Tensor> r = orc.run_model_batched("m", request_row()).get();
    ASSERT_TRUE(r.is_ok());
    EXPECT_DOUBLE_EQ(r.value().at(0, 0), 42.0);
  }
  EXPECT_EQ(orc.stats().breaker_fallbacks(), 6u);
  EXPECT_EQ(orc.stats().batches_executed(), batches_during_storm);
  EXPECT_EQ(orc.breaker("m").state(), BreakerState::kOpen);

  // Phase 3 — faults stop, cool-down elapses: half-open probes run on the
  // surrogate, pass QoI, and close the breaker.
  faulty->store(false);
  fake_clock->store(1.5);
  for (int i = 0; i < 2; ++i) {
    Result<Tensor> r = orc.run_model_batched("m", request_row()).get();
    ASSERT_TRUE(r.is_ok());
    EXPECT_NE(r.value().at(0, 0), 42.0);  // surrogate-served probe
  }
  EXPECT_EQ(orc.breaker("m").state(), BreakerState::kClosed);
  EXPECT_EQ(orc.stats().breaker_transitions("open", "half_open"), 1u);
  EXPECT_EQ(orc.stats().breaker_transitions("half_open", "closed"), 1u);

  // Phase 4 — surrogate serving restored.
  const std::uint64_t before = orc.stats().batches_executed();
  Result<Tensor> r = orc.run_model_batched("m", request_row()).get();
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(r.value().at(0, 0), 42.0);
  EXPECT_EQ(orc.stats().batches_executed(), before + 1);
}

// One OrchestratorOptions::clock times every decision of one Orchestrator:
// a batched request's deadline and its measured batch wait, the breaker's
// cool-down and an SLO's burn window all follow the same fake time, while
// the wall clock barely moves.
TEST(Reliability, OneClockDrivesDeadlinesBreakerAndSloWindows) {
  auto now = std::make_shared<std::atomic<double>>(100.0);
  auto faulty = std::make_shared<std::atomic<bool>>(false);
  OrchestratorOptions opts;
  opts.max_batch = 8;
  opts.batch_flusher = false;
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.trip_threshold = 0.5;
  opts.breaker.cooldown_seconds = 5.0;
  opts.breaker.half_open_probes = 1;
  obs::SloSpec fallbacks;
  fallbacks.name = "fallbacks";
  fallbacks.kind = obs::SloKind::kQoiFallbackRate;
  fallbacks.objective = 0.5;  // budget 0.5: an all-miss stream burns at 2
  fallbacks.fast_window_seconds = 1.0;
  fallbacks.mid_window_seconds = 1.0;
  fallbacks.slow_window_seconds = 1.0;
  fallbacks.page_burn_threshold = 1.5;
  fallbacks.ticket_burn_threshold = 1e9;
  opts.slos = {fallbacks};
  opts.clock = [now] { return now->load(); };
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model(
                         [faulty](const Tensor&, const Tensor&) { return !faulty->load(); },
                         exact_row));

  // Deadlines: both rows wait one fake second in one batch. The 0.5 s budget
  // has run out by dispatch, the 2 s budget has not.
  auto lasting = orc.run_model_batched("m", request_row(), RequestOptions::within(2.0));
  auto expiring = orc.run_model_batched("m", request_row(), RequestOptions::within(0.5));
  now->store(101.0);
  orc.flush_batches();
  EXPECT_EQ(expiring.get().code(), StatusCode::kDeadlineExceeded);
  const Result<Tensor> served = lasting.get();
  ASSERT_TRUE(served.is_ok());
  EXPECT_NE(served.value().at(0, 0), 42.0);
  const obs::RegistrySnapshot reg = orc.stats().metrics().snapshot();
  EXPECT_EQ(reg.histograms.at("serving.batch_wait_seconds").count, 1u);
  EXPECT_DOUBLE_EQ(reg.histograms.at("serving.batch_wait_seconds").sum, 1.0);

  // Breaker: keyed rows miss QoI one fake second apart; the third miss
  // trips it (4 outcomes, 3 misses) at t = 104.
  faulty->store(true);
  orc.put_tensor("x", request_row());
  for (const double t : {102.0, 103.0, 104.0}) {
    now->store(t);
    ASSERT_TRUE(orc.run_model("m", "x", "y").is_ok());
  }
  ASSERT_EQ(orc.breaker("m").state(), BreakerState::kOpen);
  now->store(105.0);  // inside the 5 s cool-down: served by the original code
  ASSERT_TRUE(orc.run_model("m", "x", "y").is_ok());
  EXPECT_EQ(orc.stats().breaker_fallbacks(), 1u);

  // SLO: four fallbacks one second apart push the fast and mid burns over
  // the page threshold.
  std::vector<obs::SloStatus> slo = orc.slo_engine().evaluate();
  ASSERT_EQ(slo.size(), 1u);
  EXPECT_TRUE(slo[0].burning);
  EXPECT_GT(slo[0].fast_burn, 1.5);

  // The cool-down ends at t = 109: the half-open probe serves the surrogate,
  // passes QoI and closes the breaker.
  faulty->store(false);
  now->store(109.5);
  ASSERT_TRUE(orc.run_model("m", "x", "y").is_ok());
  EXPECT_NE(orc.get_tensor("y").at(0, 0), 42.0);
  EXPECT_EQ(orc.breaker("m").state(), BreakerState::kClosed);
  EXPECT_EQ(orc.stats().breaker_transitions("open", "half_open"), 1u);

  // A fake quarter hour later the burn windows have decayed: the alert
  // condition clears.
  now->store(1009.5);
  slo = orc.slo_engine().evaluate();
  EXPECT_FALSE(slo[0].burning);
  EXPECT_LT(slo[0].fast_burn, 1e-6);
}

// ------------------------------------------------------------ drain/shutdown

TEST(Reliability, PendingRequestsAtTeardownGetShuttingDownStatus) {
  std::future<Result<Tensor>> stranded;
  {
    OrchestratorOptions opts;
    opts.max_batch = 8;              // never fills
    opts.batch_flusher = false;      // never swept
    Orchestrator orc(DeviceModel{}, opts);
    orc.set_model("m", rig_model());
    stranded = orc.run_model_batched("m", request_row());
    // Destroyed with the row still pending: typed status, no broken promise.
  }
  EXPECT_EQ(stranded.get().code(), StatusCode::kShuttingDown);
}

TEST(Reliability, DrainServesAcceptedWorkThenRejectsNew) {
  OrchestratorOptions opts;
  opts.max_batch = 8;
  opts.batch_flusher = false;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model());

  auto accepted = orc.run_model_batched("m", request_row());
  orc.put_tensor("x", request_row());
  // A sync request accepted before the drain has finished when it returns.
  Status accepted_sync = Status(StatusCode::kShuttingDown, "not run");
  std::thread client([&] { accepted_sync = orc.run_model("m", "x", "y"); });
  client.join();

  orc.drain();
  EXPECT_TRUE(accepted.get().is_ok());  // pending batch was flushed
  EXPECT_TRUE(accepted_sync.is_ok());
  EXPECT_TRUE(orc.has_tensor("y"));

  // Everything after drain resolves immediately with a typed status.
  EXPECT_EQ(orc.run_model_batched("m", request_row()).get().code(),
            StatusCode::kShuttingDown);
  EXPECT_EQ(orc.run_model("m", "x", "z").code(), StatusCode::kShuttingDown);
  EXPECT_FALSE(orc.has_tensor("z"));
  EXPECT_EQ(orc.stats().shutdown_rejections(), 2u);
  orc.drain();  // idempotent
}

// The acceptance-criteria stress: injected faults + concurrent shutdown;
// every accepted request resolves to a result or a typed status — no hangs,
// no broken promises.
TEST(Reliability, NoHungFuturesUnderFaultsAndConcurrentShutdown) {
  OrchestratorOptions opts;
  opts.max_batch = 8;
  opts.batch_flusher = true;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff_seconds = 1e-6;
  Orchestrator orc(DeviceModel{}, opts);
  orc.set_model("m", rig_model(nullptr, exact_row));

  FaultSpec chaos;
  chaos.transient_prob = 0.02;
  chaos.nan_prob = 0.05;
  chaos.latency_spike_prob = 0.01;
  chaos.latency_spike_seconds = 1e-5;
  chaos.batch_drop_prob = 0.01;
  orc.set_fault_injector(std::make_shared<FaultInjector>(chaos, 1234));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::future<Result<Tensor>>>> futures(kThreads);
  std::vector<std::vector<Status>> sync_statuses(kThreads);
  std::atomic<int> submitted{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      futures[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        RequestOptions request;
        if (i % 4 == 0) request = RequestOptions::within(200e-6);
        futures[t].push_back(orc.run_model_batched("m", request_row(), request));
        if (i % 10 == 0) {
          // Keyed sync requests from the same threads, racing the drain.
          const std::string key = "k" + std::to_string(t);
          orc.put_tensor(key, request_row());
          sync_statuses[t].push_back(orc.run_model("m", key, key + "_out"));
        }
        submitted.fetch_add(1);
      }
    });
  }

  // Shut down while roughly half the traffic is still arriving.
  while (submitted.load() < kThreads * kPerThread / 2) std::this_thread::yield();
  orc.drain();
  for (auto& th : threads) th.join();
  orc.flush_batches();  // anything that slipped in resolves too

  std::size_t ok = 0, typed = 0;
  const auto allowed = [](StatusCode c) {
    return c == StatusCode::kDeadlineExceeded || c == StatusCode::kTransientFailure ||
           c == StatusCode::kShuttingDown;
  };
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
          << "hung future";
      Result<Tensor> r = f.get();  // throws only on a broken promise
      if (r.is_ok()) {
        ++ok;
      } else {
        EXPECT_TRUE(allowed(r.code())) << r.status().to_string();
        ++typed;
      }
    }
  }
  for (const auto& per_thread : sync_statuses) {
    EXPECT_EQ(per_thread.size(), static_cast<std::size_t>(kPerThread / 10));
    for (const Status& s : per_thread) {
      EXPECT_TRUE(s.is_ok() || allowed(s.code())) << s.to_string();
    }
  }
  EXPECT_EQ(ok + typed, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_GT(ok, 0u);  // traffic accepted before the drain was served
}

// ------------------------------------------------------------- ServingStats

TEST(ServingStats, ReliabilityCountersAndSnapshot) {
  ServingStats stats;
  stats.record_fault_injected("transient");
  stats.record_fault_injected("transient");
  stats.record_fault_injected("nan_corruption");
  stats.record_retry();
  stats.record_deadline_miss();
  stats.record_shutdown_rejection();
  stats.record_breaker_fallback();
  stats.record_breaker_transition("closed", "open");
  stats.record_breaker_transition("open", "half_open");

  EXPECT_EQ(stats.faults_injected(), 3u);
  EXPECT_EQ(stats.retries(), 1u);
  EXPECT_EQ(stats.deadline_misses(), 1u);
  EXPECT_EQ(stats.shutdown_rejections(), 1u);
  EXPECT_EQ(stats.breaker_fallbacks(), 1u);
  EXPECT_EQ(stats.breaker_transitions("closed", "open"), 1u);
  EXPECT_EQ(stats.breaker_transitions("open", "closed"), 0u);

  const ServingStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.faults_injected, 3u);
  const obs::RegistrySnapshot reg = stats.metrics().snapshot();
  EXPECT_EQ(reg.counters.at("serving.fault.transient"), 2u);
  EXPECT_EQ(reg.counters.at("serving.fault.nan_corruption"), 1u);
  EXPECT_EQ(reg.counters.at("serving.breaker_transition.closed->open"), 1u);

  stats.reset();
  EXPECT_EQ(stats.faults_injected(), 0u);
  EXPECT_EQ(stats.breaker_transitions("closed", "open"), 0u);
}

}  // namespace
}  // namespace ahn::runtime
