#include "runtime/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "obs/exposition.hpp"
#include "runtime/circuit_breaker.hpp"

namespace ahn::runtime {

namespace {

/// Appends a shard="<id>" label to a metric name, composing with an
/// existing label block (`a{model="x"}` -> `a{model="x",shard="3"}`) so the
/// exposition layer groups per-shard series into one family.
std::string with_shard_label(const std::string& name, std::size_t shard) {
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  if (!name.empty() && name.back() == '}') {
    return name.substr(0, name.size() - 1) + "," + label + "}";
  }
  return name + "{" + label + "}";
}

}  // namespace

ClusterOrchestrator::ClusterOrchestrator(ClusterOptions opts)
    : opts_(opts),
      router_(opts.shards, opts.replication, opts.vnodes),
      failovers_(cluster_metrics_.counter("cluster.failovers")),
      breaker_reroutes_(cluster_metrics_.counter("cluster.breaker_reroutes")),
      shard_failures_(cluster_metrics_.counter("cluster.shard_failures")),
      shards_alive_gauge_(cluster_metrics_.gauge("cluster.shards_alive")),
      shards_total_gauge_(cluster_metrics_.gauge("cluster.shards_total")),
      tracer_(opts.shard_opts.tracer != nullptr ? opts.shard_opts.tracer
                                                : &obs::Tracer::global()) {
  AHN_CHECK_MSG(opts_.shards >= 1, "cluster needs at least one shard");
  AHN_CHECK_MSG(opts_.replication >= 1, "replication factor must be >= 1");
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(
        std::make_shared<Orchestrator>(opts_.device, opts_.shard_opts));
    wire_shard(*shards_.back());
  }
  set_alive_gauges();
}

ClusterOrchestrator::~ClusterOrchestrator() = default;

std::shared_ptr<Orchestrator> ClusterOrchestrator::shard_ptr(std::size_t i) const {
  const std::shared_lock<std::shared_mutex> lock(shards_mu_);
  AHN_CHECK_MSG(i < shards_.size(), "no shard " << i);
  return shards_[i];
}

Orchestrator& ClusterOrchestrator::shard(std::size_t i) { return *shard_ptr(i); }

void ClusterOrchestrator::set_alive_gauges() {
  shards_alive_gauge_.set(static_cast<double>(router_.alive_count()));
  shards_total_gauge_.set(static_cast<double>(shards_.size()));
}

// --- replicated keyed tensor store -----------------------------------------

void ClusterOrchestrator::put_tensor(const std::string& key, Tensor value) {
  std::size_t wrote = 0;
  for (const std::size_t s : router_.owners(key)) {
    if (!router_.alive(s)) continue;
    shard_ptr(s)->put_tensor(key, value);  // copy per replica
    ++wrote;
  }
  AHN_CHECK_MSG(wrote > 0, "entire replica set for key '" << key << "' is down");
}

Tensor ClusterOrchestrator::get_tensor(const std::string& key) const {
  for (const std::size_t s : router_.owners(key)) {
    if (!router_.alive(s)) continue;
    const std::shared_ptr<Orchestrator> orc = shard_ptr(s);
    if (orc->has_tensor(key)) return orc->get_tensor(key);
  }
  throw Error("no alive replica holds tensor key '" + key + "'");
}

bool ClusterOrchestrator::has_tensor(const std::string& key) const {
  for (const std::size_t s : router_.owners(key)) {
    if (router_.alive(s) && shard_ptr(s)->has_tensor(key)) return true;
  }
  return false;
}

void ClusterOrchestrator::delete_tensor(const std::string& key) {
  for (const std::size_t s : router_.owners(key)) {
    if (router_.alive(s)) shard_ptr(s)->delete_tensor(key);
  }
}

// --- cluster health plane wiring ---------------------------------------------

void ClusterOrchestrator::wire_shard(Orchestrator& orc) {
  // `this` outlives every shard (the cluster owns them), so capturing it in
  // the forwarding callbacks is safe; cluster_alerts_ and the hook slots are
  // declared before shards_ for exactly this reason.
  orc.alerts().add_callback(
      [this](const obs::Alert& alert) { cluster_alerts_.raise(alert); });
  orc.set_sample_hook([this](const std::string& name, std::span<const double> row,
                             bool qoi_ok) {
    if (!hook_set_.load(std::memory_order_acquire)) return;
    SampleHook hook;
    {
      const std::lock_guard<std::mutex> lock(hook_mu_);
      hook = sample_hook_;
    }
    if (hook) hook(name, row, qoi_ok);
  });
}

void ClusterOrchestrator::set_sample_hook(SampleHook hook) {
  const std::lock_guard<std::mutex> lock(hook_mu_);
  sample_hook_ = std::move(hook);
  hook_set_.store(static_cast<bool>(sample_hook_), std::memory_order_release);
}

// --- replicated versioned model registry --------------------------------------

void ClusterOrchestrator::set_model(const std::string& name,
                                    std::shared_ptr<const ServableModel> model) {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  const std::uint64_t id = registry_.publish(name, model, nullptr, "set_model");
  registry_.promote(name, id);
  ++registry_version_;
  // Fan out to every shard, dead ones included: registry state is
  // replicated, so a drained shard's replacement still needs the version on
  // revive — and a drained Orchestrator accepts registry mutations.
  for (std::size_t i = 0; i < shard_count(); ++i) {
    const std::shared_ptr<Orchestrator> orc = shard_ptr(i);
    orc->install_version(name, model, nullptr, "replicated", id);
    orc->promote(name, id);
  }
}

void ClusterOrchestrator::deploy(const DeploymentPackage& pkg) {
  AHN_CHECK_MSG(pkg.model != nullptr, "deployment package has no model");
  const std::lock_guard<std::mutex> lock(registry_mu_);
  const std::uint64_t id =
      registry_.publish(pkg.name, pkg.model, pkg.reference, "deploy");
  registry_.promote(pkg.name, id);
  ++registry_version_;
  for (std::size_t i = 0; i < shard_count(); ++i) {
    const std::shared_ptr<Orchestrator> orc = shard_ptr(i);
    orc->install_version(pkg.name, pkg.model, pkg.reference, "deploy", id);
    orc->promote(pkg.name, id);
  }
}

bool ClusterOrchestrator::promote(const std::string& name, std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  if (!registry_.promote(name, id)) return false;
  ++registry_version_;
  for (std::size_t i = 0; i < shard_count(); ++i) {
    shard_ptr(i)->promote(name, id);
  }
  return true;
}

std::optional<std::uint64_t> ClusterOrchestrator::rollback(const std::string& name) {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  const std::optional<ModelVersion> restored = registry_.rollback(name);
  if (!restored.has_value()) return std::nullopt;
  ++registry_version_;
  // Shard promote() is idempotent and syncs every shard to the cluster's
  // choice regardless of each shard's own prior pointer.
  for (std::size_t i = 0; i < shard_count(); ++i) {
    shard_ptr(i)->promote(name, restored->id);
  }
  return restored->id;
}

std::uint64_t ClusterOrchestrator::registry_version() const {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  return registry_version_;
}

std::vector<std::string> ClusterOrchestrator::model_names() const {
  return registry_.names();
}

// --- coordinated rollouts (RolloutHost) ---------------------------------------

std::optional<ActiveModelInfo> ClusterOrchestrator::active_model(
    const std::string& name) const {
  const std::optional<ModelVersion> ver = registry_.active(name);
  if (!ver.has_value()) return std::nullopt;
  return ActiveModelInfo{ver->id, ver->model, ver->reference};
}

std::uint64_t ClusterOrchestrator::install_candidate(
    const std::string& name, std::shared_ptr<const ServableModel> model,
    std::shared_ptr<const obs::FeatureSketch> reference, std::string origin) {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  const std::uint64_t id = registry_.publish(name, model, reference, origin);
  ++registry_version_;
  for (std::size_t i = 0; i < shard_count(); ++i) {
    shard_ptr(i)->install_version(name, model, reference, origin, id);
  }
  return id;
}

Status ClusterOrchestrator::begin_rollout(const std::string& name,
                                          std::uint64_t candidate_version,
                                          RolloutOptions opts) {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  if (!registry_.version(name, candidate_version).has_value()) {
    return Status(StatusCode::kNotFound,
                  "no version " + std::to_string(candidate_version) +
                      " of model '" + name + "'");
  }
  if (const auto it = cluster_rollouts_.find(name);
      it != cluster_rollouts_.end() && !it->second.concluded) {
    return Status(StatusCode::kInvalidArgument,
                  "rollout already in flight for model '" + name + "'");
  }
  // This coordinator owns the verdict: shards report PASSED/FAILED and hold
  // there until conclude_rollout_locked fans the cluster decision back out.
  opts.auto_finalize = false;
  for (std::size_t i = 0; i < shard_count(); ++i) {
    const Status st = shard_ptr(i)->begin_rollout(name, candidate_version, opts);
    if (!st.is_ok()) {
      for (std::size_t j = 0; j < i; ++j) {
        shard_ptr(j)->finalize_rollout(name, false, "cluster begin_rollout aborted");
      }
      return st;
    }
  }
  ClusterRollout cr;
  cr.version = candidate_version;
  cr.opts = std::move(opts);
  cluster_rollouts_[name] = std::move(cr);
  return Status::ok();
}

void ClusterOrchestrator::conclude_rollout_locked(const std::string& name,
                                                  ClusterRollout& cr,
                                                  bool promote_candidate,
                                                  const std::string& reason) {
  // Every shard (dead ones included — their registries replicate) applies
  // the same verdict; each shard's rollback alert forwards into
  // cluster_alerts_ via wire_shard.
  for (std::size_t i = 0; i < shard_count(); ++i) {
    shard_ptr(i)->finalize_rollout(name, promote_candidate, reason);
  }
  if (promote_candidate) {
    registry_.promote(name, cr.version);
    ++registry_version_;
  }
  // On failure the cluster registry never promoted the candidate, so the
  // active version is already correct — nothing to undo.
  cr.concluded = true;
}

bool ClusterOrchestrator::rollout_in_flight(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  const auto it = cluster_rollouts_.find(name);
  return it != cluster_rollouts_.end() && !it->second.concluded;
}

std::optional<RolloutSnapshot> ClusterOrchestrator::rollout_progress(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  const auto it = cluster_rollouts_.find(name);
  if (it == cluster_rollouts_.end()) return std::nullopt;
  ClusterRollout& cr = it->second;
  if (cr.concluded) return cr.last;

  RolloutSnapshot merged;
  merged.model = name;
  merged.candidate_version = cr.version;

  bool any_failed = false;
  bool all_passed = true;
  std::size_t alive = 0;
  // Least-advanced stage across alive shards, for the merged in-flight view.
  RolloutState least = RolloutState::kPassed;
  std::string fail_reason;

  for (std::size_t i = 0; i < shard_count(); ++i) {
    if (!router_.alive(i)) continue;
    ++alive;
    // Each per-shard poll also drives that shard's stage-deadline check.
    const std::optional<RolloutSnapshot> snap =
        shard_ptr(i)->rollout_progress(name);
    if (!snap.has_value()) {
      all_passed = false;
      continue;
    }
    merged.shadow_rows += snap->shadow_rows;
    merged.shadow_active_miss += snap->shadow_active_miss;
    merged.shadow_candidate_miss += snap->shadow_candidate_miss;
    merged.canary_rows += snap->canary_rows;
    merged.canary_miss += snap->canary_miss;
    switch (snap->state) {
      case RolloutState::kFailed:
      case RolloutState::kRolledBack:
        any_failed = true;
        if (fail_reason.empty()) {
          fail_reason = "shard " + std::to_string(i) + ": " +
                        (snap->reason.empty() ? "failed" : snap->reason);
        }
        break;
      case RolloutState::kPassed:
      case RolloutState::kPromoted:
        break;
      default:
        all_passed = false;
        least = std::min(least, snap->state);
        break;
    }
  }

  if (any_failed) {
    conclude_rollout_locked(name, cr, /*promote_candidate=*/false, fail_reason);
    merged.state = RolloutState::kRolledBack;
    merged.reason = fail_reason;
    cr.last = std::move(merged);
    return cr.last;
  }
  if (alive > 0 && all_passed) {
    conclude_rollout_locked(name, cr, /*promote_candidate=*/true, "");
    merged.state = RolloutState::kPromoted;
    cr.last = std::move(merged);
    return cr.last;
  }
  merged.state = alive == 0 ? RolloutState::kShadow : least;
  return merged;
}

// --- serving ------------------------------------------------------------------

Status ClusterOrchestrator::run_model(const std::string& name,
                                      const std::string& in_key,
                                      const std::string& out_key) {
  // Cluster head sampling: every Nth request opens the root span of a new
  // trace (a caller already inside a trace always joins it); the shard's
  // own serve.* spans then nest under it on this thread.
  std::optional<obs::Span> root;
  if (obs::Tracer::current().trace_id != 0 ||
      obs::sample_head(trace_ticker_, opts_.shard_opts.trace_sample_every)) {
    root.emplace(*tracer_, "cluster.run_model");
  }
  const std::vector<std::size_t> owners = router_.owners(in_key);
  bool primary_seen = false;
  Status last(StatusCode::kTransientFailure,
              "entire replica set for key '" + in_key + "' is down");
  for (const std::size_t s : owners) {
    if (!router_.alive(s)) continue;
    if (!primary_seen && s != owners.front()) failovers_.increment();
    primary_seen = true;
    const std::shared_ptr<Orchestrator> orc = shard_ptr(s);
    const Status st = orc->run_model(name, in_key, out_key);
    if (st.is_ok()) {
      // Re-home the result to out_key's replica set; the executing shard
      // keeps its local copy only if it happens to be an owner.
      Tensor out = orc->get_tensor(out_key);
      put_tensor(out_key, std::move(out));
      const std::vector<std::size_t> out_owners = router_.owners(out_key);
      if (std::find(out_owners.begin(), out_owners.end(), s) == out_owners.end()) {
        orc->delete_tensor(out_key);
      }
      return st;
    }
    if (st.code() == StatusCode::kNotFound ||
        st.code() == StatusCode::kShuttingDown) {
      // This replica misses the key (it was dead for the put) or is going
      // down — the next owner can still serve the request.
      failovers_.increment();
      if (const obs::SpanContext ctx = obs::Tracer::current(); ctx.trace_id != 0) {
        tracer_->record_span("cluster.failover", ctx, tracer_->now_seconds(), 0.0);
      }
      last = st;
      continue;
    }
    return st;  // a real serving failure, not a placement problem
  }
  return last;
}

std::vector<std::size_t> ClusterOrchestrator::prefer_closed_breakers(
    std::vector<std::size_t> candidates, const std::string& name) {
  if (candidates.size() < 2) return candidates;
  const auto breaker_open = [&](std::size_t s) {
    return shard_ptr(s)->breaker(name).state() == BreakerState::kOpen;
  };
  // Only pay the per-shard breaker lookup when the head of the line is
  // open — the common (healthy) case stays one lookup.
  if (!breaker_open(candidates.front())) return candidates;
  const auto first_closed =
      std::stable_partition(candidates.begin(), candidates.end(),
                            [&](std::size_t s) { return !breaker_open(s); });
  if (first_closed != candidates.begin()) breaker_reroutes_.increment();
  return candidates;
}

std::future<Result<Tensor>> ClusterOrchestrator::submit_failover(
    const std::vector<std::size_t>& candidates, const std::string& name,
    const Tensor& row, const RequestOptions& request) {
  // Routing happens inside a "cluster.route" child span when the request is
  // traced: the shard-side serve.run_model_batched span (same thread) nests
  // under it, carrying the trace id into the shard's batching queue.
  std::optional<obs::Span> route;
  if (obs::Tracer::current().trace_id != 0) {
    route.emplace(*tracer_, "cluster.route");
  }
  for (const std::size_t s : candidates) {
    std::future<Result<Tensor>> fut =
        shard_ptr(s)->run_model_batched(name, row, request);
    if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      return fut;  // accepted: the shard's reliability layer owns it now
    }
    // Immediately-ready futures are either a breaker-fallback result (OK —
    // hand it back) or an admission rejection worth failing over.
    Result<Tensor> r = fut.get();
    if (r.is_ok() || r.code() != StatusCode::kShuttingDown) {
      return ready_result(std::move(r));
    }
    // The kill race: the shard started draining between routing and submit.
    // Mark it dead so the router stops offering it, and resubmit.
    failovers_.increment();
    if (const obs::SpanContext ctx = obs::Tracer::current(); ctx.trace_id != 0) {
      tracer_->record_span("cluster.failover", ctx, tracer_->now_seconds(), 0.0);
    }
    router_.set_alive(s, false);
    set_alive_gauges();
  }
  return ready_result(Status(StatusCode::kTransientFailure,
                             "no alive shard accepted the request"));
}

std::future<Result<Tensor>> ClusterOrchestrator::run_model_batched(
    const std::string& name, Tensor row, RequestOptions request) {
  std::optional<obs::Span> root;
  if (obs::Tracer::current().trace_id != 0 ||
      obs::sample_head(trace_ticker_, opts_.shard_opts.trace_sample_every)) {
    root.emplace(*tracer_, "cluster.run_model_batched");
  }
  // Round-robin over the alive shards: maximum spread, no key affinity.
  std::vector<std::size_t> alive;
  alive.reserve(shard_count());
  for (std::size_t i = 0; i < shard_count(); ++i) {
    if (router_.alive(i)) alive.push_back(i);
  }
  if (alive.empty()) {
    return ready_result(
        Status(StatusCode::kTransientFailure, "no alive shards in the cluster"));
  }
  const std::size_t start =
      rr_.fetch_add(1, std::memory_order_relaxed) % alive.size();
  std::rotate(alive.begin(), alive.begin() + static_cast<std::ptrdiff_t>(start),
              alive.end());
  return submit_failover(prefer_closed_breakers(std::move(alive), name), name, row,
                         request);
}

std::future<Result<Tensor>> ClusterOrchestrator::run_model_batched(
    const std::string& name, Tensor row, const std::string& routing_key,
    RequestOptions request) {
  std::optional<obs::Span> root;
  if (obs::Tracer::current().trace_id != 0 ||
      obs::sample_head(trace_ticker_, opts_.shard_opts.trace_sample_every)) {
    root.emplace(*tracer_, "cluster.run_model_batched");
  }
  const std::vector<std::size_t> owners = router_.owners(routing_key);
  std::vector<std::size_t> alive;
  alive.reserve(owners.size());
  for (const std::size_t s : owners) {
    if (router_.alive(s)) alive.push_back(s);
  }
  if (alive.empty()) {
    return ready_result(
        Status(StatusCode::kTransientFailure,
               "entire replica set for key '" + routing_key + "' is down"));
  }
  if (alive.front() != owners.front()) failovers_.increment();
  return submit_failover(prefer_closed_breakers(std::move(alive), name), name, row,
                         request);
}

void ClusterOrchestrator::flush_batches() {
  for (std::size_t i = 0; i < shard_count(); ++i) {
    if (router_.alive(i)) shard_ptr(i)->flush_batches();
  }
}

// --- failure handling ---------------------------------------------------------

void ClusterOrchestrator::fail_shard(std::size_t i) {
  if (!router_.alive(i)) return;
  // Order matters for the zero-loss contract: stop routing first, then
  // drain — everything the shard accepted before (or during) the flip still
  // resolves, and the submit/kill race is absorbed by submit_failover.
  router_.set_alive(i, false);
  shard_failures_.increment();
  set_alive_gauges();
  shard_ptr(i)->drain();
}

void ClusterOrchestrator::revive_shard(std::size_t i) {
  if (router_.alive(i)) return;
  auto fresh = std::make_shared<Orchestrator>(opts_.device, opts_.shard_opts);
  {
    // registry_mu_ before shards_mu_ — the same order as the deploy fan-out.
    const std::lock_guard<std::mutex> registry_lock(registry_mu_);
    // Replay every retained version with the cluster's ids, then promote the
    // cluster's active version — the revived shard reconciles to exactly the
    // registry_version_ epoch it missed, rollback targets included.
    for (const std::string& name : registry_.names()) {
      for (const ModelVersion& v : registry_.versions(name)) {
        fresh->install_version(name, v.model, v.reference, v.origin, v.id);
      }
      if (const std::uint64_t active_id = registry_.active_id(name);
          active_id != 0) {
        fresh->promote(name, active_id);
      }
    }
    // A rollout still in flight resumes on the revived shard (its shadow /
    // canary counts restart from zero; the merge sums across shards).
    for (const auto& [name, cr] : cluster_rollouts_) {
      if (cr.concluded) continue;
      const Status st = fresh->begin_rollout(name, cr.version, cr.opts);
      AHN_CHECK_MSG(st.is_ok(), "revive could not resume rollout for '"
                                    << name << "': " << st.message());
    }
    wire_shard(*fresh);
    const std::unique_lock<std::shared_mutex> shards_lock(shards_mu_);
    shards_[i] = std::move(fresh);
  }
  router_.set_alive(i, true);
  set_alive_gauges();
}

// --- aggregate health ----------------------------------------------------------

double ClusterOrchestrator::device_seconds(std::size_t i) {
  const obs::RegistrySnapshot snap = shard_ptr(i)->stats().metrics().snapshot();
  const auto it = snap.histograms.find("serving.latency.total");
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

std::uint64_t ClusterOrchestrator::failovers() const { return failovers_.value(); }

std::uint64_t ClusterOrchestrator::breaker_reroutes() const {
  return breaker_reroutes_.value();
}

ClusterHealth ClusterOrchestrator::cluster_health() {
  ClusterHealth h;
  h.shards_total = shard_count();
  h.shards_alive = router_.alive_count();
  h.failovers = failovers_.value();
  h.breaker_reroutes = breaker_reroutes_.value();
  h.registry_version = registry_version();
  h.uptime_seconds = uptime_.seconds();

  const std::vector<std::string> names = model_names();
  obs::HistogramSnapshot cluster_latency;
  double max_device_seconds = 0.0;
  double max_slo_burn = 0.0;   // worst burn rate across shards/specs/windows
  double slo_burning = 0.0;    // 1 when any shard's alert condition holds

  for (std::size_t i = 0; i < shard_count(); ++i) {
    const std::shared_ptr<Orchestrator> orc = shard_ptr(i);
    // Scrape-driven SLO evaluation: burns decay to "now" and alert edges
    // fire/clear even when the shard's inline eval cadence hasn't hit.
    orc->slo_engine().evaluate();
    const obs::RegistrySnapshot snap = orc->stats().metrics().snapshot();

    ShardHealth sh;
    sh.shard = i;
    sh.alive = router_.alive(i);
    if (const auto it = snap.counters.find("serving.requests_served");
        it != snap.counters.end()) {
      sh.requests_served = it->second;
    }
    if (const auto it = snap.histograms.find("serving.latency.total");
        it != snap.histograms.end()) {
      sh.device_seconds = it->second.sum;
      sh.latency_p50 = it->second.percentile(50.0);
      sh.latency_p95 = it->second.percentile(95.0);
      sh.latency_p99 = it->second.percentile(99.0);
      cluster_latency.merge(it->second);
    }
    for (const std::string& name : names) {
      sh.breaker_states[name] = breaker_state_name(orc->breaker(name).state());
    }
    max_device_seconds = std::max(max_device_seconds, sh.device_seconds);
    h.requests_served += sh.requests_served;

    // Shard-labeled copy of every per-shard instrument: same-named metrics
    // from different shards become one family with a shard label, so the
    // merged snapshot is collision-free and exposition-ready.
    for (const auto& [k, v] : snap.counters) {
      h.merged.counters[with_shard_label(k, i)] = v;
    }
    for (const auto& [k, v] : snap.gauges) {
      // A shard's SLO gauges roll up pessimistically: the cluster burns as
      // hard as its worst shard.
      if (k.rfind("slo.burn_rate", 0) == 0) max_slo_burn = std::max(max_slo_burn, v);
      if (k.rfind("slo.burning", 0) == 0) slo_burning = std::max(slo_burning, v);
      h.merged.gauges[with_shard_label(k, i)] = v;
    }
    for (const auto& [k, v] : snap.histograms) {
      h.merged.histograms[with_shard_label(k, i)] = v;
    }
    h.shards.push_back(std::move(sh));
  }

  h.latency_p50 = cluster_latency.percentile(50.0);
  h.latency_p95 = cluster_latency.percentile(95.0);
  h.latency_p99 = cluster_latency.percentile(99.0);
  h.avg_rps = h.uptime_seconds > 0.0
                  ? static_cast<double>(h.requests_served) / h.uptime_seconds
                  : 0.0;
  h.modeled_rps = max_device_seconds > 0.0
                      ? static_cast<double>(h.requests_served) / max_device_seconds
                      : 0.0;

  // Worst drift per model across shards (each shard sketches only the live
  // rows it served, so the cluster view is the most pessimistic shard).
  for (const std::string& name : names) {
    double worst = 0.0;
    for (std::size_t i = 0; i < shard_count(); ++i) {
      const obs::ModelHealth mh = shard_ptr(i)->model_health(name);
      worst = std::max(worst, mh.drift_score);
    }
    h.merged.gauges["cluster.drift_score{model=\"" + name + "\"}"] = worst;
    h.merged.gauges["cluster.model_version{model=\"" + name + "\"}"] =
        static_cast<double>(registry_.active_id(name));
    if (worst > h.max_drift_score) {
      h.max_drift_score = worst;
      h.max_drift_model = name;
    }
  }

  // Cluster-level instruments and computed aggregates.
  h.merged.merge(cluster_metrics_.snapshot());
  h.merged.counters["cluster.requests_served"] = h.requests_served;
  h.merged.histograms["cluster.latency.total"] = cluster_latency;
  h.merged.gauges["cluster.modeled_rps"] = h.modeled_rps;
  h.merged.gauges["cluster.max_drift_score"] = h.max_drift_score;
  h.merged.gauges["cluster.registry_version"] =
      static_cast<double>(h.registry_version);
  h.merged.gauges["cluster.slo_burn_rate"] = max_slo_burn;
  h.merged.gauges["cluster.slo_burning"] = slo_burning;
  return h;
}

void ClusterOrchestrator::drain() {
  for (std::size_t i = 0; i < shard_count(); ++i) shard_ptr(i)->drain();
}

// --- exposition ---------------------------------------------------------------

obs::HttpServer& ClusterOrchestrator::serve_exposition(std::uint16_t port) {
  const std::lock_guard<std::mutex> lock(http_mu_);
  if (http_ != nullptr && http_->running()) return *http_;
  obs::HttpServer::Options hopts;
  hopts.port = port;
  auto server = std::make_unique<obs::HttpServer>(hopts);

  // Handlers run on the server's connection threads; everything they read
  // (shards, tracer, cluster metrics) is thread-safe and outlives the
  // server (it is declared last, so destroyed/drained first).
  server->add_route("/metrics", [this](const obs::HttpRequest&,
                                       obs::HttpResponse& res) {
    ClusterHealth h = cluster_health();
    {
      const std::lock_guard<std::mutex> http_lock(http_mu_);
      if (http_ != nullptr) {
        h.merged.counters["http.requests_served"] = http_->requests_served();
      }
    }
    obs::PrometheusOptions popts;
    popts.exemplars = true;
    popts.openmetrics_eof = true;
    res.content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8";
    res.body = obs::export_prometheus_string(h.merged, popts);
  });

  server->add_route("/healthz", [this](const obs::HttpRequest&,
                                       obs::HttpResponse& res) {
    const std::size_t total = shard_count();
    const std::size_t alive = router_.alive_count();
    std::ostringstream os;
    os << "{\"status\": \"" << (alive > 0 ? "ok" : "unavailable")
       << "\", \"shards_alive\": " << alive << ", \"shards_total\": " << total
       << ", \"shards\": [";
    for (std::size_t i = 0; i < total; ++i) {
      if (i > 0) os << ", ";
      os << "{\"shard\": " << i << ", \"alive\": "
         << (router_.alive(i) ? "true" : "false") << "}";
    }
    os << "]}\n";
    res.status = alive > 0 ? 200 : 503;
    res.content_type = "application/json";
    res.body = os.str();
  });

  server->add_route("/slo", [this](const obs::HttpRequest&,
                                   obs::HttpResponse& res) {
    std::ostringstream os;
    os << "{\"shards\": [";
    for (std::size_t i = 0; i < shard_count(); ++i) {
      if (i > 0) os << ", ";
      obs::SloEngine& eng = shard_ptr(i)->slo_engine();
      eng.evaluate();
      os << "{\"shard\": " << i << ", \"alive\": "
         << (router_.alive(i) ? "true" : "false") << ", \"slos\": "
         << eng.status_json() << "}";
    }
    os << "]}\n";
    res.content_type = "application/json";
    res.body = os.str();
  });

  server->add_route("/tracez", [this](const obs::HttpRequest&,
                                      obs::HttpResponse& res) {
    res.content_type = "application/json";
    res.body = obs::export_chrome_trace_string(tracer_->snapshot());
  });

  AHN_CHECK_MSG(server->start(), "exposition server failed to bind port "
                                     << port);
  http_ = std::move(server);
  return *http_;
}

}  // namespace ahn::runtime
