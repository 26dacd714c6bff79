// Self-healing serving bench (docs/RETRAINING.md): the closed
// drift -> retrain -> shadow -> canary -> promote loop, end to end, on a
// 2-shard cluster — and the guard rail that makes it safe to automate: a
// poisoned candidate must be rolled back with zero client impact.
//
// Phase A — closed loop: a surrogate trained against a linear "original
// code" teacher on in-distribution inputs serves a stream whose inputs then
// shift by +3 sigma. The per-row QoI contract (relative error vs the
// teacher, epsilon = p70 of the OLD model's error on drifted rows, so the
// active model misses ~30% — enough signal to beat, below the 50% breaker
// trip) routes misses to the teacher, the drift detector alerts, and an
// attached Retrainer labels its Turaco-weighted reservoir with the teacher,
// fine-tunes, and walks the candidate through the coordinated cluster
// rollout. Gated: zero lost requests, >= 1 drift alert, the cycle ends
// PROMOTED with every shard serving v2, and the post-promote drift score
// (against the candidate's reservoir reference) is back under the alert
// threshold.
//
// Phase B — poisoned candidate: on a fresh cluster an untrained (garbage
// but finite) candidate is pushed through install_candidate +
// begin_rollout while in-distribution traffic flows. Shadow double-scoring
// must catch the QoI regression and the coordinator must roll every shard
// back to v1 — still with zero lost requests, since shadow rows never
// change responses. Gated on the terminal ROLLED_BACK state and v1 active
// everywhere.
//
// Emits BENCH_retrain_loop.json and BENCH_retrain_loop.prom (the merged
// cluster metrics, including serving.model_version / serving.rollout_state
// and the shadow/canary counters). Exits non-zero if any gate fails.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "nn/topology.hpp"
#include "nn/train.hpp"
#include "obs/export.hpp"
#include "obs/exposition.hpp"
#include "runtime/cluster.hpp"
#include "runtime/deployment.hpp"
#include "runtime/retrainer.hpp"

namespace {

using namespace ahn;

constexpr std::size_t kIn = 8;
constexpr std::size_t kOut = 2;
constexpr double kDriftShift = 3.0;      // +3 sigma vs the randn training inputs
constexpr double kDriftThreshold = 3.0;  // reservoir-reference PSI noise < this

/// The "original code": a fixed linear map, cheap enough to call per row.
Tensor teacher(const Tensor& row) {
  Tensor out({1, kOut});
  double y0 = 0.0, y1 = 0.0;
  for (std::size_t f = 0; f < kIn; ++f) {
    const double x = row.flat()[f];
    y0 += (0.3 + 0.1 * static_cast<double>(f)) * x;
    y1 += (0.9 - 0.1 * static_cast<double>(f)) * x;
  }
  out.flat()[0] = y0;
  out.flat()[1] = 0.5 * y1;
  return out;
}

/// Relative L2 error with the denominator floored at 1: near-zero teacher
/// outputs (zero-mean inputs through a linear map) must not blow the ratio
/// up — the floor makes the metric absolute in that regime.
double rel_error(const Tensor& got, const Tensor& want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = got.flat()[i] - want.flat()[i];
    num += d * d;
    den += want.flat()[i] * want.flat()[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1.0);
}

Tensor random_rows(std::size_t n, double shift, Rng& rng) {
  Tensor x({n, kIn});
  for (double& v : x.flat()) v = rng.gaussian() + shift;
  return x;
}

/// v1: genuinely trained on in-distribution inputs against the teacher.
std::shared_ptr<runtime::ServableModel> make_v1(const Tensor& train_x) {
  nn::Dataset data;
  data.x = train_x;
  data.y = Tensor({train_x.shape()[0], kOut});
  for (std::size_t r = 0; r < train_x.shape()[0]; ++r) {
    const Tensor row = Tensor({1, kIn}, {train_x.row(r).begin(), train_x.row(r).end()});
    const Tensor y = teacher(row);
    for (std::size_t c = 0; c < kOut; ++c) data.y.row(r)[c] = y.flat()[c];
  }
  Rng rng(17);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 16;
  nn::Network net = nn::build_surrogate(spec, kIn, kOut, rng);
  nn::TrainOptions topts;
  // NOT scaled: both phases calibrate their QoI epsilon from v1's error
  // distribution, so v1 must be genuinely good even in smoke runs — a
  // half-trained v1 loosens eps_b until the untrained poison sits on the
  // shadow pass/fail boundary and Phase B turns into a coin flip. 60
  // epochs on this 8->16->2 net is milliseconds.
  topts.epochs = 60;
  auto m = std::make_shared<runtime::ServableModel>();
  m->surrogate = nn::train_surrogate(std::move(net), data, topts);
  m->infer_ops = m->surrogate.net.inference_cost(1);
  m->fallback = teacher;
  return m;
}

runtime::ClusterOptions cluster_options() {
  runtime::ClusterOptions opts;
  opts.shards = 2;
  opts.replication = 2;
  opts.shard_opts.max_batch = 1;              // inline: caller drives rollouts
  opts.shard_opts.batch_flusher = false;  // no flusher thread
  opts.shard_opts.monitor.sample_every = 1;
  opts.shard_opts.monitor.drift_threshold = kDriftThreshold;
  return opts;
}

runtime::RolloutOptions rollout_options() {
  runtime::RolloutOptions ro;
  ro.shadow_rows = bench::scaled(192, 64);
  ro.canary_rows = bench::scaled(192, 64);
  ro.canary_min_samples = 16;
  ro.stage_timeout_seconds = 60.0;
  return ro;
}

}  // namespace

int main() {
  bench::print_header(
      "Self-healing serving: drift-triggered retraining + poisoned-candidate rollback",
      "the ROADMAP self-healing item over the paper's §7.1 QoI contract");

  Rng rng(29);
  const Tensor train_x = random_rows(bench::scaled(1024, 256), 0.0, rng);
  const std::shared_ptr<runtime::ServableModel> v1 = make_v1(train_x);

  // QoI epsilon from the OLD model's error distribution on +3 sigma rows:
  // p70 makes v1 miss ~30% of drifted rows — above any rollout margin,
  // safely below the breaker's 50% trip threshold.
  std::vector<double> errs;
  for (int i = 0; i < 512; ++i) {
    const Tensor row = random_rows(1, kDriftShift, rng);
    errs.push_back(rel_error(v1->surrogate.predict(row), teacher(row)));
  }
  std::sort(errs.begin(), errs.end());
  const double eps = errs[errs.size() * 70 / 100];
  auto model = std::make_shared<runtime::ServableModel>(*v1);
  model->qoi_check = [eps](const Tensor& in, const Tensor& out) {
    return rel_error(out, teacher(in)) <= eps;
  };
  std::cout << "QoI epsilon (p70 of v1 rel-error on drifted rows): "
            << TextTable::num(eps, 4) << "\n\n";

  // --- Phase A: the closed loop on a 2-shard cluster. ----------------------
  runtime::ClusterOrchestrator cluster(cluster_options());
  cluster.deploy(runtime::DeploymentPackage::build("surrogate", model, train_x));

  runtime::RetrainerOptions ropts;
  ropts.sample_every = 1;
  ropts.reservoir_capacity = bench::scaled(512, 128);
  ropts.min_retrain_rows = bench::scaled(128, 32);
  ropts.train.epochs = static_cast<std::size_t>(bench::scaled(60, 20));
  ropts.rollout = rollout_options();
  ropts.cycle_timeout_seconds = 60.0;
  runtime::Retrainer retrainer(cluster, ropts);

  Timer wall;
  const std::size_t max_rows = bench::scaled(30000, 6000);
  std::size_t served_a = 0, lost_a = 0;
  while (retrainer.stats().cycles_promoted == 0 && served_a < max_rows &&
         wall.seconds() < 90.0) {
    const Tensor row = random_rows(1, kDriftShift, rng);
    if (cluster.run_model_batched("surrogate", row).get().is_ok()) {
      ++served_a;
    } else {
      ++lost_a;
    }
  }
  retrainer.stop();  // no second cycle while we measure the outcome

  // Post-promote drift: serve more of the SAME drifted stream; against the
  // candidate's reservoir-built reference it must score under the threshold.
  for (std::size_t i = 0; i < bench::scaled(2000, 400); ++i) {
    const Tensor row = random_rows(1, kDriftShift, rng);
    if (cluster.run_model_batched("surrogate", row).get().is_ok()) {
      ++served_a;
    } else {
      ++lost_a;
    }
  }
  const runtime::RetrainerStats stats = retrainer.stats();
  const std::uint64_t drift_alerts =
      cluster.alert_sink().raised(obs::AlertKind::kDriftDetected);
  const std::uint64_t active_a = cluster.registry().active_id("surrogate");
  std::size_t shards_on_v2 = 0;
  double post_drift = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    if (cluster.shard(s).registry().active_id("surrogate") == 2) ++shards_on_v2;
    post_drift =
        std::max(post_drift, cluster.shard(s).model_health("surrogate").drift_score);
  }

  TextTable loop({"metric", "value"});
  loop.add_row({"rows served (drifted)", std::to_string(served_a)});
  loop.add_row({"rows lost", std::to_string(lost_a)});
  loop.add_row({"drift alerts", std::to_string(drift_alerts)});
  loop.add_row({"retrain cycles started", std::to_string(stats.cycles_started)});
  loop.add_row({"retrain cycles promoted", std::to_string(stats.cycles_promoted)});
  loop.add_row({"active version (cluster)", "v" + std::to_string(active_a)});
  loop.add_row({"shards serving v2", std::to_string(shards_on_v2) + "/2"});
  loop.add_row({"post-promote drift score", TextTable::num(post_drift, 3)});
  loop.add_row({"wall seconds", TextTable::num(wall.seconds(), 2)});
  std::cout << loop.render() << "\n";

  const bool loop_ok = lost_a == 0 && drift_alerts >= 1 &&
                       stats.cycles_promoted >= 1 && active_a == 2 &&
                       shards_on_v2 == 2 && post_drift < kDriftThreshold;

  // --- Phase B: a poisoned candidate must be auto-rolled-back. -------------
  // Own QoI contract, calibrated for the traffic this phase serves: p95 of
  // v1's error on IN-distribution rows, so the active model misses ~5%
  // (breaker stays far from its 50% trip) while the untrained candidate
  // misses nearly everything — the regression shadow scoring must catch.
  std::vector<double> in_errs;
  for (int i = 0; i < 512; ++i) {
    const Tensor row = random_rows(1, 0.0, rng);
    in_errs.push_back(rel_error(v1->surrogate.predict(row), teacher(row)));
  }
  std::sort(in_errs.begin(), in_errs.end());
  const double eps_b = in_errs[in_errs.size() * 95 / 100];
  std::cout << "Phase B QoI epsilon (p95 of v1 rel-error in-distribution): "
            << TextTable::num(eps_b, 4) << "\n";
  auto model_b = std::make_shared<runtime::ServableModel>(*v1);
  model_b->qoi_check = [eps_b](const Tensor& in, const Tensor& out) {
    return rel_error(out, teacher(in)) <= eps_b;
  };

  runtime::ClusterOrchestrator guard(cluster_options());
  guard.deploy(runtime::DeploymentPackage::build("surrogate", model_b, train_x));

  // Untrained network: finite but wrong everywhere the teacher is consulted.
  auto poison = std::make_shared<runtime::ServableModel>(*model_b);
  {
    Rng prng(997);
    nn::TopologySpec spec;
    spec.num_layers = 1;
    spec.hidden_units = 16;
    poison->surrogate = nn::TrainedSurrogate{};
    poison->surrogate.net = nn::build_surrogate(spec, kIn, kOut, prng);
  }
  const std::uint64_t vp = guard.install_candidate("surrogate", poison, nullptr, "poison");
  if (!guard.begin_rollout("surrogate", vp, rollout_options()).is_ok()) {
    std::cout << "FAIL: begin_rollout refused the poisoned candidate\n";
    return 1;
  }

  std::size_t served_b = 0, lost_b = 0;
  runtime::RolloutState guard_state = runtime::RolloutState::kShadow;
  std::string guard_reason;
  for (std::size_t i = 0; i < bench::scaled(4000, 800); ++i) {
    const Tensor row = random_rows(1, 0.0, rng);  // in-distribution: v1 is good
    if (guard.run_model_batched("surrogate", row).get().is_ok()) {
      ++served_b;
    } else {
      ++lost_b;
    }
    const auto snap = guard.rollout_progress("surrogate");
    if (snap && runtime::rollout_terminal(snap->state)) {
      guard_state = snap->state;
      guard_reason = snap->reason;
      break;
    }
  }
  const std::uint64_t active_b = guard.registry().active_id("surrogate");
  std::size_t shards_on_v1 = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    if (guard.shard(s).registry().active_id("surrogate") == 1) ++shards_on_v1;
  }

  std::cout << "poisoned candidate: state="
            << runtime::rollout_state_name(guard_state) << ", served " << served_b
            << ", lost " << lost_b << ", active v" << active_b << " on "
            << shards_on_v1 << "/2 shards\n  reason: " << guard_reason << "\n\n";

  const bool guard_ok = guard_state == runtime::RolloutState::kRolledBack &&
                        lost_b == 0 && active_b == 1 && shards_on_v1 == 2;

  // --- Machine-readable exports. -------------------------------------------
  runtime::ClusterHealth health = cluster.cluster_health();
  {
    std::ofstream json("BENCH_retrain_loop.json");
    json << "{\n  \"bench\": \"retrain_loop\",\n"
         << "  \"closed_loop\": {\n"
         << "    \"rows_served\": " << served_a << ",\n"
         << "    \"rows_lost\": " << lost_a << ",\n"
         << "    \"drift_alerts\": " << drift_alerts << ",\n"
         << "    \"cycles_started\": " << stats.cycles_started << ",\n"
         << "    \"cycles_promoted\": " << stats.cycles_promoted << ",\n"
         << "    \"active_version\": " << active_a << ",\n"
         << "    \"shards_on_v2\": " << shards_on_v2 << ",\n"
         << "    \"qoi_epsilon\": " << TextTable::num(eps, 6) << ",\n"
         << "    \"post_promote_drift\": " << TextTable::num(post_drift, 4) << "\n"
         << "  },\n"
         << "  \"poisoned_candidate\": {\n"
         << "    \"state\": \"" << runtime::rollout_state_name(guard_state) << "\",\n"
         << "    \"rows_served\": " << served_b << ",\n"
         << "    \"rows_lost\": " << lost_b << ",\n"
         << "    \"active_version\": " << active_b << ",\n"
         << "    \"shards_on_v1\": " << shards_on_v1 << "\n"
         << "  },\n"
         << "  \"cluster_metrics\": ";
    obs::ExportOptions eo;
    eo.base_indent = 2;
    obs::export_json(json, health.merged, nullptr, eo);
    json << "\n}\n";
  }
  std::cout << "wrote BENCH_retrain_loop.json\n";
  if (!obs::export_prometheus_file("BENCH_retrain_loop.prom", health.merged)) {
    std::cout << "FAIL: prometheus export\n";
    return 1;
  }
  std::cout << "wrote BENCH_retrain_loop.prom\n";

  if (!loop_ok) std::cout << "FAIL: closed loop did not end promoted and clean\n";
  if (!guard_ok) std::cout << "FAIL: poisoned candidate was not rolled back cleanly\n";
  const bool pass = loop_ok && guard_ok;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
