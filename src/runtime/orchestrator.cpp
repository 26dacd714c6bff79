#include "runtime/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "nn/train.hpp"
#include "runtime/deployment.hpp"

namespace ahn::runtime {

namespace {

/// Row `r` of a rank-2 tensor as its own (1 x cols) tensor.
Tensor copy_row(const Tensor& t, std::size_t r) {
  return Tensor({1, t.cols()}, std::vector<double>(t.row(r).begin(), t.row(r).end()));
}

}  // namespace

Orchestrator::Orchestrator(DeviceModel device, OrchestratorOptions opts)
    : device_(device),
      opts_(opts),
      tracer_(opts.tracer != nullptr ? opts.tracer : &obs::Tracer::global()) {
  // The SLO engine outlives every serving thread (destroyed after the
  // executors join) and feeds this orchestrator's own alert sink/registry.
  slo_ = std::make_unique<obs::SloEngine>(opts_.slos, &alerts_, &stats_.metrics(),
                                          opts_.clock);
}

Orchestrator::~Orchestrator() = default;

void Orchestrator::put_tensor(const std::string& key, Tensor value) {
  tensors_.put(key, std::move(value));
}

Tensor Orchestrator::get_tensor(const std::string& key) const {
  return tensors_.get(key);
}

bool Orchestrator::has_tensor(const std::string& key) const {
  return tensors_.has(key);
}

void Orchestrator::delete_tensor(const std::string& key) {
  tensors_.erase(key);
}

void Orchestrator::set_model(const std::string& name,
                             std::shared_ptr<const ServableModel> model) {
  AHN_CHECK(model != nullptr);
  const std::uint64_t id =
      registry_.publish(name, std::move(model), nullptr, "set_model");
  promote(name, id);
}

void Orchestrator::deploy(const DeploymentPackage& pkg) {
  AHN_CHECK_MSG(pkg.model != nullptr, "deployment package has no model");
  const std::uint64_t id =
      registry_.publish(pkg.name, pkg.model, pkg.reference, "deploy");
  promote(pkg.name, id);
}

std::shared_ptr<const ServableModel> Orchestrator::model(const std::string& name) const {
  std::shared_ptr<const ServableModel> m = registry_.active_model(name);
  AHN_CHECK_MSG(m != nullptr, "no model named '" << name << "'");
  return m;
}

bool Orchestrator::promote(const std::string& name, std::uint64_t id) {
  const std::optional<ModelVersion> ver = registry_.version(name, id);
  if (!ver.has_value() || !registry_.promote(name, id)) return false;
  // Re-baseline decay detection for the newly serving weights: install the
  // version's own reference sketch when it carries one, otherwise re-arm
  // against the existing reference. Either way both edge-triggers reset, so
  // a recovered model can alert on a *second* drift episode.
  obs::ModelMonitor& mon = monitor(name);
  if (ver->reference != nullptr) {
    mon.set_reference(ver->reference);
  } else {
    mon.rebaseline();
  }
  stats_.metrics()
      .gauge("serving.model_version{model=\"" + name + "\"}")
      .set(static_cast<double>(id));
  return true;
}

std::optional<std::uint64_t> Orchestrator::rollback(const std::string& name) {
  const std::optional<ModelVersion> ver = registry_.rollback(name);
  if (!ver.has_value()) return std::nullopt;
  obs::ModelMonitor& mon = monitor(name);
  if (ver->reference != nullptr) {
    mon.set_reference(ver->reference);
  } else {
    mon.rebaseline();
  }
  stats_.metrics()
      .gauge("serving.model_version{model=\"" + name + "\"}")
      .set(static_cast<double>(ver->id));
  return ver->id;
}

std::optional<ActiveModelInfo> Orchestrator::active_model(
    const std::string& name) const {
  std::optional<ModelVersion> v = registry_.active(name);
  if (!v.has_value()) return std::nullopt;
  ActiveModelInfo info;
  info.version = v->id;
  info.model = std::move(v->model);
  info.reference = std::move(v->reference);
  return info;
}

std::uint64_t Orchestrator::install_candidate(
    const std::string& name, std::shared_ptr<const ServableModel> model,
    std::shared_ptr<const obs::FeatureSketch> reference, std::string origin) {
  return registry_.publish(name, std::move(model), std::move(reference),
                           std::move(origin));
}

std::uint64_t Orchestrator::install_version(
    const std::string& name, std::shared_ptr<const ServableModel> model,
    std::shared_ptr<const obs::FeatureSketch> reference, std::string origin,
    std::uint64_t explicit_id) {
  return registry_.publish(name, std::move(model), std::move(reference),
                           std::move(origin), explicit_id);
}

Status Orchestrator::begin_rollout(const std::string& name,
                                   std::uint64_t candidate_version,
                                   RolloutOptions opts) {
  const std::optional<ModelVersion> cand = registry_.version(name, candidate_version);
  if (!cand.has_value()) {
    return Status(StatusCode::kNotFound,
                  "no retained version " + std::to_string(candidate_version) +
                      " of model '" + name + "'");
  }
  const std::uint64_t active = registry_.active_id(name);
  if (active == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "no active version of '" + name + "' to shadow against");
  }
  if (active == candidate_version) {
    return Status(StatusCode::kInvalidArgument,
                  "candidate is already the active version of '" + name + "'");
  }

  auto ro = std::make_shared<ActiveRollout>(name, candidate_version, cand->model,
                                            std::move(opts), opts_.clock);
  obs::MetricsRegistry& mx = stats_.metrics();
  const std::string lbl = "{model=\"" + name + "\"}";
  ro->shadow_rows = &mx.counter("serving.shadow.rows" + lbl);
  ro->shadow_active_miss = &mx.counter("serving.shadow.active_qoi_miss" + lbl);
  ro->shadow_candidate_miss = &mx.counter("serving.shadow.candidate_qoi_miss" + lbl);
  ro->canary_rows = &mx.counter("serving.canary.rows" + lbl);
  ro->canary_miss = &mx.counter("serving.canary.qoi_miss" + lbl);
  {
    const std::unique_lock<std::shared_mutex> lock(rollouts_mu_);
    if (rollouts_.find(name) != rollouts_.end()) {
      return Status(StatusCode::kInvalidArgument,
                    "a rollout is already in flight for '" + name + "'");
    }
    rollouts_.emplace(name, std::move(ro));
    rollouts_live_.fetch_add(1, std::memory_order_release);
  }
  mx.gauge("serving.rollout_state" + lbl)
      .set(static_cast<double>(RolloutState::kShadow));
  return Status::ok();
}

std::shared_ptr<Orchestrator::ActiveRollout> Orchestrator::find_rollout(
    const std::string& name) {
  if (rollouts_live_.load(std::memory_order_acquire) == 0) return nullptr;
  const std::shared_lock<std::shared_mutex> lock(rollouts_mu_);
  const auto it = rollouts_.find(name);
  return it == rollouts_.end() ? nullptr : it->second;
}

void Orchestrator::clear_rollout(const std::string& name, const ActiveRollout& ro) {
  const RolloutSnapshot snap = ro.ctl.snapshot();
  {
    const std::unique_lock<std::shared_mutex> lock(rollouts_mu_);
    const auto it = rollouts_.find(name);
    if (it == rollouts_.end() || it->second.get() != &ro) return;
    last_rollouts_[name] = snap;
    rollouts_.erase(it);
    rollouts_live_.fetch_sub(1, std::memory_order_release);
  }
  stats_.metrics()
      .gauge("serving.rollout_state{model=\"" + name + "\"}")
      .set(static_cast<double>(snap.state));
}

void Orchestrator::maybe_conclude_rollout(const std::string& name,
                                          ActiveRollout& ro) {
  if (!ro.ctl.options().auto_finalize) return;
  const RolloutState st = ro.ctl.state();
  if (st == RolloutState::kPassed) {
    conclude_rollout(name, ro, /*promote_candidate=*/true, "");
  } else if (st == RolloutState::kFailed) {
    conclude_rollout(name, ro, /*promote_candidate=*/false, "");
  }
}

void Orchestrator::conclude_rollout(const std::string& name, ActiveRollout& ro,
                                    bool promote_candidate, const std::string& reason) {
  if (promote_candidate) {
    ro.ctl.mark_promoted();
    promote(name, ro.version);
    stats_.metrics()
        .counter("serving.rollout.promotions{model=\"" + name + "\"}")
        .increment();
  } else {
    // The candidate never became the active version — discarding it leaves
    // the prior weights serving, which *is* the rollback (§7.1's safety
    // property extended to deployments).
    ro.ctl.mark_rolled_back(reason);
    stats_.metrics()
        .counter("serving.rollout.rollbacks{model=\"" + name + "\"}")
        .increment();
    obs::Alert a;
    a.kind = obs::AlertKind::kRolloutRolledBack;
    a.model = name;
    a.value = static_cast<double>(ro.version);
    a.message = "candidate v" + std::to_string(ro.version) +
                " rolled back: " + ro.ctl.snapshot().reason;
    alerts_.raise(a);
  }
  clear_rollout(name, ro);
}

void Orchestrator::finalize_rollout(const std::string& name, bool promote_candidate,
                                    const std::string& reason) {
  const std::shared_ptr<ActiveRollout> ro = find_rollout(name);
  if (ro != nullptr) conclude_rollout(name, *ro, promote_candidate, reason);
}

bool Orchestrator::rollout_in_flight(const std::string& name) const {
  const std::shared_lock<std::shared_mutex> lock(rollouts_mu_);
  return rollouts_.find(name) != rollouts_.end();
}

std::optional<RolloutSnapshot> Orchestrator::rollout_progress(const std::string& name) {
  const std::shared_ptr<ActiveRollout> ro = find_rollout(name);
  if (ro == nullptr) {
    const std::shared_lock<std::shared_mutex> lock(rollouts_mu_);
    const auto it = last_rollouts_.find(name);
    if (it == last_rollouts_.end()) return std::nullopt;
    return it->second;
  }
  ro->ctl.poll();  // stage-deadline check rides on every progress poll
  maybe_conclude_rollout(name, *ro);
  const RolloutSnapshot snap = ro->ctl.snapshot();
  stats_.metrics()
      .gauge("serving.rollout_state{model=\"" + name + "\"}")
      .set(static_cast<double>(snap.state));
  return snap;
}

void Orchestrator::set_sample_hook(SampleHook hook) {
  const std::lock_guard<std::mutex> lock(hook_mu_);
  sample_hook_ = std::move(hook);
  hook_set_.store(static_cast<bool>(sample_hook_), std::memory_order_release);
}

void Orchestrator::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  const std::lock_guard<std::mutex> lock(injector_mu_);
  injector_ = std::move(injector);
}

std::shared_ptr<FaultInjector> Orchestrator::fault_injector() const {
  const std::lock_guard<std::mutex> lock(injector_mu_);
  return injector_;
}

CircuitBreaker& Orchestrator::breaker(const std::string& name) {
  const std::lock_guard<std::mutex> lock(breakers_mu_);
  std::unique_ptr<CircuitBreaker>& b = breakers_[name];
  if (b == nullptr) {
    CircuitBreakerOptions bopts = opts_.breaker;
    // Per-model state gauge (closed=0 / open=1 / half_open=2) plus the
    // breaker_open alert hook. Both targets live at stable addresses for
    // this orchestrator's lifetime; the callback runs under the breaker
    // mutex and never calls back into the breaker.
    obs::Gauge& state_gauge =
        stats_.metrics().gauge("serving.breaker_state{model=\"" + name + "\"}");
    state_gauge.set(0.0);
    obs::ModelMonitor& mon = monitor(name);
    const double trip_threshold = bopts.trip_threshold;
    bopts.on_transition = [this, &state_gauge, &mon, trip_threshold, name](
                              BreakerState /*from*/, BreakerState to,
                              double window_fallback_rate) {
      state_gauge.set(static_cast<double>(to));
      if (to == BreakerState::kOpen) {
        mon.record_breaker_open(window_fallback_rate, trip_threshold);
        // A trip mid-rollout fails the candidate immediately, whatever the
        // stage (lock order: breaker mutex -> rollouts_mu_ shared ->
        // controller mutex; nothing here calls back into the breaker).
        if (const std::shared_ptr<ActiveRollout> ro = find_rollout(name)) {
          ro->ctl.note_breaker_trip();
        }
      }
    };
    b = std::make_unique<CircuitBreaker>(std::move(bopts), &stats_, opts_.clock);
  }
  return *b;
}

obs::ModelMonitor& Orchestrator::monitor(const std::string& name) {
  const std::lock_guard<std::mutex> lock(monitors_mu_);
  std::unique_ptr<obs::ModelMonitor>& m = monitors_[name];
  if (m == nullptr) {
    m = std::make_unique<obs::ModelMonitor>(name, opts_.monitor, &alerts_);
  }
  return *m;
}

obs::ModelHealth Orchestrator::model_health(const std::string& name) {
  obs::ModelHealth h = monitor(name).health();
  {
    const std::lock_guard<std::mutex> lock(breakers_mu_);
    const auto it = breakers_.find(name);
    if (it != breakers_.end()) {
      h.breaker_state = breaker_state_name(it->second->state());
      h.breaker_trips = it->second->trips();
    }
  }
  h.latency_p50 = stats_.latency_percentile("total", 50.0);
  h.latency_p95 = stats_.latency_percentile("total", 95.0);
  h.latency_p99 = stats_.latency_percentile("total", 99.0);
  return h;
}

Result<Tensor> Orchestrator::execute(const ServableModel& m, const Tensor& input,
                                     RequestPhases* batch_phases) {
  AHN_CHECK(input.rank() == 2);
  const std::size_t batch = input.rows();
  const std::shared_ptr<FaultInjector> inj = fault_injector();

  // A dropped batch is lost before any phase runs; it is retriable.
  if (inj != nullptr && inj->draw_batch_drop()) {
    stats_.record_fault_injected("batch_drop");
    return Status(StatusCode::kTransientFailure, "injected batch drop");
  }

  // Consults the injector for one phase: returns false on a transient fault
  // (the attempt is abandoned), otherwise adds any latency spike to that
  // phase's modeled seconds.
  RequestPhases spikes;
  const char* failed_phase = nullptr;
  const auto probe_phase = [&](ServingPhase p, const char* name,
                               double& spike_s) -> bool {
    if (inj == nullptr) return true;
    if (inj->draw_transient(p)) {
      stats_.record_fault_injected("transient");
      failed_phase = name;
      return false;
    }
    const double spike = inj->draw_latency_spike(p);
    if (spike > 0.0) {
      stats_.record_fault_injected("latency_spike");
      spike_s = spike;
    }
    return true;
  };
  const auto transient = [&] {
    return Status(StatusCode::kTransientFailure,
                  std::string("injected transient fault in ") + failed_phase);
  };

  // (1) fetch: move the input tensor onto the device.
  if (!probe_phase(ServingPhase::kFetch, "fetch", spikes.fetch)) return transient();

  // (2) encode: feature reduction on device (skipped without an encoder).
  Tensor reduced = m.encode ? m.encode(input) : input;
  if (m.encode && !probe_phase(ServingPhase::kEncode, "encode", spikes.encode)) {
    return transient();
  }

  // (3) load: touch the cached surrogate weights (once per batch — this is
  // the phase micro-batching amortizes, §7.3).
  if (!probe_phase(ServingPhase::kLoad, "load", spikes.load)) return transient();

  // (4) run: surrogate inference + result transfer back.
  Tensor out = m.surrogate.predict(reduced);
  if (!probe_phase(ServingPhase::kRun, "run", spikes.run)) return transient();

  // NaN corruption: one output row silently poisoned — the QoI guard in
  // finalize_batch is what must catch it, exactly as a real device fault
  // would have to be caught.
  if (inj != nullptr && out.rows() > 0 && inj->draw_nan_corruption()) {
    stats_.record_fault_injected("nan_corruption");
    const std::size_t r = inj->draw_row(out.rows());
    for (double& v : out.row(r)) v = std::numeric_limits<double>::quiet_NaN();
  }

  RequestPhases phases = device_.phases(
      m.encode_ops, m.infer_ops, static_cast<bool>(m.encode),
      m.surrogate.net.precision() == nn::Precision::kInt8, batch,
      sizeof(double) * input.size(), out.size());
  phases.fetch += spikes.fetch;
  phases.encode += spikes.encode;
  phases.load += spikes.load;
  phases.run += spikes.run;
  if (batch_phases != nullptr) *batch_phases = phases;
  if (opts_.simulate_device_occupancy) {
    // Stand in for the accelerator: the whole batch holds the device for its
    // modeled online time, however many rows it coalesced. Busy-wait rather
    // than sleep — the waits are tens of microseconds, below timer slack.
    const double busy_s = phases.total();
    for (Timer t; t.seconds() < busy_s;) {
    }
  }
  return out;
}

Result<Tensor> Orchestrator::execute_with_retry(const ServableModel& m,
                                                const Tensor& input,
                                                RequestPhases* batch_phases) {
  const std::size_t max_attempts = std::max<std::size_t>(opts_.retry.max_attempts, 1);
  double backoff = opts_.retry.initial_backoff_seconds;
  for (std::size_t attempt = 1;; ++attempt) {
    Result<Tensor> r = execute(m, input, batch_phases);
    if (r.is_ok() || r.code() != StatusCode::kTransientFailure ||
        attempt >= max_attempts) {
      return r;
    }
    stats_.record_retry();
    double sleep_s = backoff;
    if (opts_.retry.jitter_fraction > 0.0) {
      // Jitter de-correlates retry storms from concurrent clients.
      const std::lock_guard<std::mutex> lock(retry_mu_);
      sleep_s *= retry_rng_.uniform(1.0 - opts_.retry.jitter_fraction,
                                    1.0 + opts_.retry.jitter_fraction);
    }
    if (sleep_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    }
    backoff *= opts_.retry.backoff_multiplier;
  }
}

Status Orchestrator::run_model(const std::string& name, const std::string& in_key,
                               const std::string& out_key) {
  if (draining()) {
    stats_.record_shutdown_rejection();
    return Status(StatusCode::kShuttingDown, "orchestrator draining");
  }
  const obs::Span span(*tracer_, "serve.run_model");
  const std::shared_ptr<const ServableModel> m = registry_.active_model(name);
  if (m == nullptr) {
    return Status(StatusCode::kModelUnavailable, "no model named '" + name + "'");
  }
  std::optional<Tensor> input = tensors_.try_get(in_key);
  if (!input.has_value()) {
    return Status(StatusCode::kNotFound, "no tensor at key '" + in_key + "'");
  }
  std::optional<Tensor> out = breaker_fallback(name, *m, *input);
  if (!out.has_value()) {
    // The keyed tensor is one batch, served on this thread: no queue, no
    // handoff.
    std::vector<Tensor> rows;
    for (Result<Tensor>& r : serve(name, m.get(), *input, {})) {
      if (!r.is_ok()) return r.status();
      rows.push_back(std::move(r.value()));
    }
    out = nn::pack_rows(rows);
  }
  put_tensor(out_key, std::move(*out));
  return Status::ok();
}

std::future<Result<Tensor>> Orchestrator::run_model_batched(const std::string& name,
                                                            Tensor row,
                                                            RequestOptions request) {
  if (draining()) {
    stats_.record_shutdown_rejection();
    return ready_result(Status(StatusCode::kShuttingDown, "orchestrator draining"));
  }
  // Head sampling: a request arriving with a trace already current on this
  // thread (the cluster router's route span) always joins it; otherwise
  // every trace_sample_every'th request opens a fresh root span. The span
  // covers admission + enqueue; the queue carries its context the rest of
  // the way (batch_wait -> execute -> qoi children + exemplars).
  std::optional<obs::Span> span;
  if (obs::Tracer::current().trace_id != 0 ||
      obs::sample_head(trace_ticker_, opts_.trace_sample_every)) {
    span.emplace(*tracer_, "serve.run_model_batched");
  }
  const std::shared_ptr<const ServableModel> m = registry_.active_model(name);
  if (m == nullptr) {
    slo_->record_dropped(name);
    return ready_result(
        Status(StatusCode::kModelUnavailable, "no model named '" + name + "'"));
  }
  if (row.rank() == 1) row.reshape({1, row.size()});
  if (std::optional<Tensor> exact = breaker_fallback(name, *m, row)) {
    return ready_result(Result<Tensor>(std::move(*exact)));
  }
  return batches().submit(name, std::move(row), request.timeout_seconds);
}

std::optional<Tensor> Orchestrator::breaker_fallback(const std::string& name,
                                                     const ServableModel& m,
                                                     const Tensor& input) {
  if (!m.fallback || breaker(name).admit() != CircuitBreaker::Route::kOriginal) {
    return std::nullopt;
  }
  // Open (or probe-saturated half-open) breaker: the request is served by
  // the original code on the caller's thread — graceful systemic
  // degradation instead of doomed surrogate traffic.
  const obs::Span fb_span(*tracer_, "serve.breaker_fallback");
  std::vector<Tensor> exact;
  for (std::size_t r = 0; r < input.rows(); ++r) {
    stats_.record_breaker_fallback();
    slo_->record(name, 0.0, /*ok=*/true, /*qoi_fallback=*/true);
    exact.push_back(m.fallback(copy_row(input, r)));
  }
  return nn::pack_rows(exact);
}

BatchingQueue::RowResults Orchestrator::serve(const std::string& name,
                                              const ServableModel* m, const Tensor& batch,
                                              const std::vector<obs::SpanContext>& contexts) {
  const TeamOfOne team;
  const std::size_t rows = batch.rows();
  stats_.record_batch(rows);
  RequestPhases phases;
  const Result<Tensor> out =
      m != nullptr ? execute_with_retry(*m, batch, &phases)
                   : Status(StatusCode::kModelUnavailable, "no model named '" + name + "'");
  if (!out.is_ok()) {
    // A batch-wide failure is `rows` availability bad events.
    for (std::size_t r = 0; r < rows; ++r) {
      slo_->record(name, 0.0, /*ok=*/false, /*qoi_fallback=*/false);
    }
    return BatchingQueue::RowResults(rows, out.status());
  }
  // Per-request latency is the batch's modeled phase time amortized over the
  // rows — the quantity the batch-size histogram trades against. Traced rows
  // stamp their trace id onto the latency buckets they land in, so a scraped
  // histogram links straight to a captured trace.
  const double n = static_cast<double>(std::max<std::size_t>(rows, 1));
  const RequestPhases per_request{phases.fetch / n, phases.encode / n, phases.load / n,
                                  phases.run / n};
  for (std::size_t r = 0; r < rows; ++r) {
    stats_.record_request(per_request, r < contexts.size() ? contexts[r].trace_id : 0);
  }

  // Live rollout for this model: run the candidate's duplicate forward over
  // the same batch (no stats, no fault injection — the shadow must not
  // perturb the serving measurements it is judged against).
  const std::shared_ptr<ActiveRollout> ro = find_rollout(name);
  Tensor cand_out;
  bool have_candidate = false;
  if (ro != nullptr) {
    const RolloutState st = ro->ctl.poll();
    if (st == RolloutState::kShadow || st == RolloutState::kCanary) {
      std::optional<obs::Span> shadow_span;
      if (obs::Tracer::current().trace_id != 0) {
        shadow_span.emplace(*tracer_, "serve.shadow_infer");
      }
      const ServableModel& cand = *ro->candidate;
      cand_out = cand.encode ? cand.surrogate.predict(cand.encode(batch))
                             : cand.surrogate.predict(batch);
      have_candidate = cand_out.rows() == rows;
    }
  }
  BatchingQueue::RowResults results = finalize_batch(
      name, *m, batch, out.value(), have_candidate ? ro.get() : nullptr,
      have_candidate ? &cand_out : nullptr, contexts, per_request.total());
  if (ro != nullptr) maybe_conclude_rollout(name, *ro);
  return results;
}

BatchingQueue::RowResults Orchestrator::finalize_batch(
    const std::string& name, const ServableModel& m, const Tensor& batch,
    const Tensor& out, ActiveRollout* ro, const Tensor* cand_out,
    const std::vector<obs::SpanContext>& contexts, double per_row_seconds) {
  const std::size_t rows = batch.rows();
  BatchingQueue::RowResults results;
  results.reserve(rows);
  CircuitBreaker* br = m.fallback ? &breaker(name) : nullptr;
  obs::ModelMonitor& mon = monitor(name);
  SampleHook hook;
  if (hook_set_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(hook_mu_);
    hook = sample_hook_;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    Tensor row_out = copy_row(out, r);

    // Built on demand: only QoI checks and fallbacks need the input row.
    Tensor row_in;
    const auto input_row = [&]() -> const Tensor& {
      if (row_in.size() == 0) row_in = copy_row(batch, r);
      return row_in;
    };

    // Non-finite outputs are always a QoI miss (this is what catches
    // injected NaN corruption); the model's own check refines further.
    bool qoi_ok = std::all_of(row_out.row(0).begin(), row_out.row(0).end(),
                              [](double v) { return std::isfinite(v); });
    if (qoi_ok && m.qoi_check) qoi_ok = m.qoi_check(input_row(), row_out);

    // Live rollout: score the candidate's duplicate output for this row and
    // decide whether the row is a shadow observation (response untouched)
    // or a canary row (served by the candidate).
    bool serve_candidate = false;
    bool cand_ok = false;
    Tensor cand_row;
    if (ro != nullptr && cand_out != nullptr) {
      cand_row = copy_row(*cand_out, r);
      cand_ok = std::all_of(cand_row.row(0).begin(), cand_row.row(0).end(),
                            [](double v) { return std::isfinite(v); });
      const ServableModel& cand_model = *ro->candidate;
      if (cand_ok && cand_model.qoi_check) {
        cand_ok = cand_model.qoi_check(input_row(), cand_row);
      }
      const RolloutState stage = ro->ctl.state();
      if (stage == RolloutState::kCanary && ro->ctl.admit_canary()) {
        serve_candidate = true;
        ro->canary_rows->increment();
        if (!cand_ok) ro->canary_miss->increment();
        ro->ctl.record_canary(cand_ok);
      } else if (stage == RolloutState::kShadow) {
        ro->shadow_rows->increment();
        if (!qoi_ok) ro->shadow_active_miss->increment();
        if (!cand_ok) ro->shadow_candidate_miss->increment();
        ro->ctl.record_shadow(qoi_ok, cand_ok);
      }
    }

    // Health signals track whichever model actually served the row.
    const bool served_ok = serve_candidate ? cand_ok : qoi_ok;
    if (br != nullptr) br->record_outcome(served_ok);
    mon.record_request(batch.row(r), served_ok);
    if (hook) hook(name, batch.row(r), served_ok);

    if (served_ok) {
      slo_->record(name, per_row_seconds, /*ok=*/true, /*qoi_fallback=*/false);
      results.emplace_back(serve_candidate ? std::move(cand_row)
                                           : std::move(row_out));
      continue;
    }
    stats_.record_qoi_fallback();
    if (m.fallback) {
      // §7.1: re-run the original code for this request, transparently.
      // Parented under the submitting request's span when the row is traced
      // (the trace shows *which request* paid the original-code cost), else
      // under the enclosing batch span (same thread).
      const obs::SpanContext row_ctx =
          r < contexts.size() ? contexts[r] : obs::SpanContext{};
      const obs::Span span(*tracer_, "serve.qoi_fallback",
                           row_ctx.trace_id != 0 ? row_ctx : obs::Tracer::current());
      slo_->record(name, per_row_seconds, /*ok=*/true, /*qoi_fallback=*/true);
      results.emplace_back(m.fallback(input_row()));
    } else {
      slo_->record(name, per_row_seconds, /*ok=*/false, /*qoi_fallback=*/false);
      results.emplace_back(
          Status(StatusCode::kQoIRejected, "QoI miss with no original-code fallback"));
    }
  }
  return results;
}

void Orchestrator::flush_batches() {
  // Only started queues can hold pending rows; don't spawn one just to drain.
  if (batches_ != nullptr) batches_->flush();
}

void Orchestrator::drain() {
  draining_.store(true, std::memory_order_release);
  // Everything accepted before the flag flipped still gets served: pending
  // micro-batches execute. Requests arriving after the flag resolve
  // immediately with kShuttingDown. Going through the call_once accessor
  // (not the raw pointer) synchronizes with clients that are lazily
  // creating the queue concurrently with shutdown.
  batches().drain();
}

BatchingQueue& Orchestrator::batches() {
  std::call_once(batches_once_, [this] {
    BatchingOptions bopts;
    bopts.max_batch = opts_.max_batch;
    bopts.flusher = opts_.batch_flusher;
    batches_ = std::make_unique<BatchingQueue>(
        [this](const std::string& model_name, const Tensor& batch,
               const std::vector<obs::SpanContext>& contexts) {
          // Nested inside the queue's "batching.execute" span (same thread):
          // the batch span covers model lookup + the fused forward + QoI.
          // Join-only — when the batch carried no traced row there is no
          // current span and this batch records nothing (head sampling is
          // decided at the serving edge).
          std::optional<obs::Span> span;
          if (obs::Tracer::current().trace_id != 0) {
            span.emplace(*tracer_, "serve.batch");
          }
          const std::shared_ptr<const ServableModel> m = registry_.active_model(model_name);
          return serve(model_name, m.get(), batch, contexts);
        },
        bopts, &stats_, tracer_, opts_.clock);
  });
  return *batches_;
}

}  // namespace ahn::runtime
