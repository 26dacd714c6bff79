// Calibrated int8 inference bench (docs/PERFORMANCE.md — "Calibrated int8
// inference"): the end-to-end quantized serving path across the 11 Table 2
// applications, plus the rollout guard rails that make shipping a quantized
// model safe.
//
// Phase A — per-app throughput + QoI: for every application, train a modest
// MLP surrogate on exact region outputs, quantize a copy (percentile
// calibration on the training inputs, per-shape kernel selection), and
// measure single-thread batched predict throughput of the fp32 fast path vs
// the int8 path on held-out problems. QoI is the application's own
// qoi_error against the exact region outputs — "QoI met" means the
// quantized model's mean QoI error stays within 1.25x of the fp32
// surrogate's (or under the paper's 10% quality bound outright). Gated:
// >= kMinWinningApps apps must show >= kSpeedupTarget speedup with QoI met.
//
// Phase B — rollout: a quantized candidate built by quantized_servable()
// walks shadow -> canary -> promote behind the QoI breaker on clean traffic
// (gated: promoted, zero lost rows, zero breaker trips), and a deliberately
// mis-calibrated candidate (activation scale 1000x off) is auto-rolled back
// by shadow scoring (gated: rolled back, zero lost rows, v1 active). Both
// candidates pin the int8 Dot kernel (no probe), so their int8 payloads are
// what shadow and canary score on any host; a probe that picks fp32 for
// this small model would leave the payloads unserved and the phase
// vacuous.
//
// Emits BENCH_quantized.json and BENCH_quantized.prom (the promote-phase
// orchestrator metrics, picked up by the CI Prometheus smoke gate). Exits
// non-zero if any gate fails.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "nn/quantization.hpp"
#include "nn/topology.hpp"
#include "nn/train.hpp"
#include "obs/exposition.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"
#include "runtime/rollout.hpp"

namespace {

using namespace ahn;

constexpr double kSpeedupTarget = 2.0;  ///< int8 vs fp32 fast path, 1 thread
constexpr std::size_t kMinWinningApps = 3;
constexpr double kQualityBound = 0.10;  ///< paper's default QoI loss bound
constexpr std::size_t kServeBatch = 64;

struct AppResult {
  std::string name;
  std::size_t in = 0, out = 0;
  double fp32_rows_per_s = 0.0;
  double int8_rows_per_s = 0.0;
  double speedup = 0.0;
  double fp32_qoi = 0.0;
  double int8_qoi = 0.0;
  bool qoi_ok = false;
  std::string kernels;  ///< per-layer selected kernels, e.g. "int8_dot,int8_dot"
};

/// Best-of-`reps` wall time of `sweeps` batched predict passes over `x`.
template <typename Fn>
double time_predict(Fn&& predict_all, std::size_t sweeps, int reps) {
  double best = std::numeric_limits<double>::infinity();
  predict_all();  // warm-up: page in weights, settle allocators
  for (int r = 0; r < reps; ++r) {
    const Timer t;
    for (std::size_t s = 0; s < sweeps; ++s) predict_all();
    best = std::min(best, t.seconds());
  }
  return best;
}

std::string layer_kernels(const nn::Network& net) {
  std::string s;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto* d = dynamic_cast<const nn::DenseLayer*>(&net.layer(i));
    if (d == nullptr || !d->has_quantized()) continue;
    if (!s.empty()) s += ",";
    s += ops::kernel_choice_name(d->quantized()->kernel);
  }
  return s;
}

AppResult run_app(const std::string& name) {
  auto app = apps::make_application(name);
  const std::size_t count = bench::scaled(240, 72);
  app->generate_problems(count, 0xA11CE5);
  const std::size_t train_n = count * 4 / 5;
  const std::size_t eval_n = count - train_n;

  nn::Dataset data;
  data.x = Tensor({train_n, app->input_dim()});
  data.y = Tensor({train_n, app->output_dim()});
  for (std::size_t i = 0; i < train_n; ++i) {
    const std::vector<double> feat = app->input_features(i);
    std::copy(feat.begin(), feat.end(), data.x.row(i).begin());
    const apps::RegionRun run = app->run_region(i);
    std::copy(run.outputs.begin(), run.outputs.end(), data.y.row(i).begin());
  }
  Tensor eval_x({eval_n, app->input_dim()});
  std::vector<std::vector<double>> exact(eval_n);
  for (std::size_t i = 0; i < eval_n; ++i) {
    const std::vector<double> feat = app->input_features(train_n + i);
    std::copy(feat.begin(), feat.end(), eval_x.row(i).begin());
    exact[i] = app->run_region(train_n + i).outputs;
  }

  Rng rng(0xB0B5 + name.size());
  nn::TopologySpec spec;
  spec.num_layers = 2;
  spec.hidden_units = 64;
  nn::TrainOptions topts;
  topts.epochs = bench::scaled(60, 25);
  nn::TrainedSurrogate fp32 = nn::train_surrogate(
      nn::build_surrogate(spec, app->input_dim(), app->output_dim(), rng), data, topts);

  nn::TrainedSurrogate int8 = fp32;  // deep copy: Network assignment clones layers
  nn::QuantizationOptions qopts;    // percentile calibration + live kernel probe
  nn::quantize_surrogate(int8, data.x, qopts);

  AppResult r;
  r.name = name;
  r.in = app->input_dim();
  r.out = app->output_dim();
  r.kernels = layer_kernels(int8.net);

  // Single-thread throughput over the held-out rows in serving-sized
  // batches; enough sweeps that each measurement covers >= 512 rows.
  const std::size_t sweeps = std::max<std::size_t>(1, 512 / eval_n);
  auto sweep = [&](const nn::TrainedSurrogate& model) {
    for (std::size_t at = 0; at < eval_n; at += kServeBatch) {
      const std::size_t rows = std::min(kServeBatch, eval_n - at);
      Tensor batch({rows, app->input_dim()});
      std::copy(eval_x.row(at).begin(), eval_x.row(at).begin() + rows * app->input_dim(),
                batch.flat().begin());
      volatile double sink = model.predict(batch).flat()[0];
      (void)sink;
    }
  };
  const double t_fp32 = time_predict([&] { sweep(fp32); }, sweeps, 3);
  const double t_int8 = time_predict([&] { sweep(int8); }, sweeps, 3);
  const double rows_total = static_cast<double>(eval_n * sweeps);
  r.fp32_rows_per_s = rows_total / t_fp32;
  r.int8_rows_per_s = rows_total / t_int8;
  r.speedup = t_fp32 / t_int8;

  // Mean application QoI error vs the exact region, per precision.
  const Tensor p_fp32 = fp32.predict(eval_x);
  const Tensor p_int8 = int8.predict(eval_x);
  double e_fp32 = 0.0, e_int8 = 0.0;
  for (std::size_t i = 0; i < eval_n; ++i) {
    const auto row32 = p_fp32.row(i);
    const auto row8 = p_int8.row(i);
    e_fp32 += app->qoi_error(train_n + i, exact[i], {row32.begin(), row32.end()});
    e_int8 += app->qoi_error(train_n + i, exact[i], {row8.begin(), row8.end()});
  }
  r.fp32_qoi = e_fp32 / static_cast<double>(eval_n);
  r.int8_qoi = e_int8 / static_cast<double>(eval_n);
  r.qoi_ok = r.int8_qoi <= std::max(kQualityBound, 1.25 * r.fp32_qoi);
  return r;
}

// ------------------------------------------------------- Phase B: rollout

constexpr std::size_t kIn = 24;
constexpr std::size_t kOut = 4;

Tensor teacher(const Tensor& row) {
  Tensor out({1, kOut});
  for (std::size_t o = 0; o < kOut; ++o) {
    double s = 0.0;
    for (std::size_t f = 0; f < kIn; ++f) {
      s += (0.2 + 0.05 * static_cast<double>((f + o) % 7)) *
           (o % 2 == 0 ? 1.0 : -1.0) * row.flat()[f];
    }
    out.flat()[o] = s;
  }
  return out;
}

double rel_error(const Tensor& got, const Tensor& want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double d = got.flat()[i] - want.flat()[i];
    num += d * d;
    den += want.flat()[i] * want.flat()[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1.0);
}

Tensor random_rows(std::size_t n, Rng& rng) {
  Tensor x({n, kIn});
  for (double& v : x.flat()) v = rng.gaussian();
  return x;
}

std::shared_ptr<runtime::ServableModel> make_v1(const Tensor& train_x) {
  nn::Dataset data;
  data.x = train_x;
  data.y = Tensor({train_x.shape()[0], kOut});
  for (std::size_t r = 0; r < train_x.shape()[0]; ++r) {
    const Tensor row =
        Tensor({1, kIn}, {train_x.row(r).begin(), train_x.row(r).end()});
    const Tensor y = teacher(row);
    for (std::size_t c = 0; c < kOut; ++c) data.y.row(r)[c] = y.flat()[c];
  }
  Rng rng(53);
  nn::TopologySpec spec;
  spec.num_layers = 1;
  spec.hidden_units = 32;
  nn::TrainOptions topts;
  topts.epochs = 300;  // NOT scaled: the QoI epsilon is calibrated from v1's
                       // error distribution, so v1 must be genuinely good
                       // even in smoke runs — a sloppy v1 loosens eps until
                       // the mis-calibrated candidate slips through shadow
  auto m = std::make_shared<runtime::ServableModel>();
  m->surrogate = nn::train_surrogate(
      nn::build_surrogate(spec, kIn, kOut, rng), data, topts);
  m->infer_ops = m->surrogate.net.inference_cost(1);
  m->fallback = teacher;
  return m;
}

runtime::OrchestratorOptions inline_opts() {
  runtime::OrchestratorOptions opts;
  opts.max_batch = 1;              // inline: the loop below drives the rollout
  opts.batch_flusher = false;  // no flusher thread
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

struct RolloutOutcome {
  std::string state = "?";
  std::size_t served = 0, lost = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t active_version = 0;
  bool active_int8 = false;
};

RolloutOutcome drive_rollout(runtime::Orchestrator& orc,
                             std::shared_ptr<runtime::ServableModel> candidate,
                             const char* note, Rng& rng) {
  const std::uint64_t v2 = orc.install_candidate("surrogate", std::move(candidate),
                                                 nullptr, note);
  RolloutOutcome out;
  if (!orc.begin_rollout("surrogate", v2, rollout_options()).is_ok()) return out;
  for (std::size_t i = 0; i < bench::scaled(4000, 800); ++i) {
    if (orc.run_model_batched("surrogate", random_rows(1, rng)).get().is_ok()) {
      ++out.served;
    } else {
      ++out.lost;
    }
    const auto snap = orc.rollout_progress("surrogate");
    if (snap && runtime::rollout_terminal(snap->state)) {
      out.state = runtime::rollout_state_name(snap->state);
      break;
    }
  }
  out.breaker_trips = orc.breaker("surrogate").trips();
  out.active_version = orc.registry().active_id("surrogate");
  const auto active = orc.active_model("surrogate");
  out.active_int8 = active.has_value() &&
                    active->model->surrogate.net.precision() == nn::Precision::kInt8;
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Calibrated int8 inference: per-app speedup + QoI, quantized rollout",
      "the perf path behind the paper's §6.3 serving loop at int8 precision");

#ifdef _OPENMP
  omp_set_num_threads(1);  // the gate is a single-thread throughput claim
#endif

  // --- Phase A: per-app quantized vs fp32. ---------------------------------
  std::vector<AppResult> results;
  TextTable table({"app", "in->out", "fp32 rows/s", "int8 rows/s", "speedup",
                   "fp32 QoI", "int8 QoI", "QoI met", "kernels"});
  std::size_t wins = 0;
  for (const std::string& name : apps::application_names()) {
    AppResult r = run_app(name);
    const bool win = r.speedup >= kSpeedupTarget && r.qoi_ok;
    wins += win ? 1 : 0;
    table.add_row({r.name, std::to_string(r.in) + "->" + std::to_string(r.out),
                   TextTable::num(r.fp32_rows_per_s, 0),
                   TextTable::num(r.int8_rows_per_s, 0),
                   TextTable::num(r.speedup, 2) + "x",
                   TextTable::num(r.fp32_qoi, 4), TextTable::num(r.int8_qoi, 4),
                   r.qoi_ok ? "yes" : "NO", r.kernels});
    std::cout << "  [" << r.name << "] int8 " << TextTable::num(r.speedup, 2)
              << "x, QoI " << (r.qoi_ok ? "met" : "MISSED") << "\n"
              << std::flush;
    results.push_back(std::move(r));
  }
  std::cout << "\n" << table.render() << "\n";
  std::cout << "apps at >= " << TextTable::num(kSpeedupTarget, 1) << "x with QoI met: "
            << wins << "/" << results.size() << " (need >= " << kMinWinningApps
            << ")\n\n";
  const bool apps_ok = wins >= kMinWinningApps;

  // --- Phase B: quantized candidate through shadow/canary. -----------------
  Rng rng(71);
  const Tensor train_x = random_rows(bench::scaled(1024, 256), rng);
  const std::shared_ptr<runtime::ServableModel> v1 = make_v1(train_x);

  // QoI epsilon: p95 of v1's error on clean traffic. v1 misses ~5% (far from
  // the breaker's trip threshold); a well-calibrated int8 copy sits within
  // quantization error of v1, while the mis-calibrated one misses everything.
  std::vector<double> errs;
  for (int i = 0; i < 512; ++i) {
    const Tensor row = random_rows(1, rng);
    errs.push_back(rel_error(v1->surrogate.predict(row), teacher(row)));
  }
  std::sort(errs.begin(), errs.end());
  const double eps = errs[errs.size() * 95 / 100];
  auto model = std::make_shared<runtime::ServableModel>(*v1);
  model->qoi_check = [eps](const Tensor& in, const Tensor& out) {
    return rel_error(out, teacher(in)) <= eps;
  };
  std::cout << "rollout QoI epsilon (p95 of v1 rel-error): "
            << TextTable::num(eps, 4) << "\n";

  nn::QuantizationOptions pinned;
  pinned.probe_kernels = false;  // serve the int8 payloads under test
  runtime::Orchestrator orc(runtime::DeviceModel{}, inline_opts());
  orc.deploy(runtime::DeploymentPackage::build("surrogate", model, train_x));
  auto clean = std::make_shared<runtime::ServableModel>(
      runtime::quantized_servable(*model, train_x, pinned));
  const RolloutOutcome promote = drive_rollout(orc, clean, "quantize", rng);
  std::cout << "clean quantized candidate: " << promote.state << ", served "
            << promote.served << ", lost " << promote.lost << ", breaker trips "
            << promote.breaker_trips << ", active v" << promote.active_version
            << (promote.active_int8 ? " (int8)" : " (fp32)") << "\n";
  const bool promote_ok = promote.state == "promoted" && promote.lost == 0 &&
                          promote.breaker_trips == 0 && promote.active_version == 2 &&
                          promote.active_int8;

  // Mis-calibrated candidate: activation scale 1000x too large crushes every
  // input to the zero code — shadow scoring must refuse it.
  runtime::Orchestrator guard(runtime::DeviceModel{}, inline_opts());
  guard.deploy(runtime::DeploymentPackage::build("surrogate", model, train_x));
  auto bad = std::make_shared<runtime::ServableModel>(
      runtime::quantized_servable(*model, train_x, pinned));
  for (std::size_t i = 0; i < bad->surrogate.net.layer_count(); ++i) {
    if (auto* d = dynamic_cast<nn::DenseLayer*>(&bad->surrogate.net.layer(i))) {
      d->set_quantized(nn::build_quantized_dense(
          d->weights(), quant::QuantParams{1000.0, 0}, pinned));
    }
  }
  const RolloutOutcome rollback = drive_rollout(guard, bad, "mis-calibrated", rng);
  std::cout << "mis-calibrated candidate: " << rollback.state << ", served "
            << rollback.served << ", lost " << rollback.lost << ", active v"
            << rollback.active_version << "\n\n";
  const bool rollback_ok = rollback.state == "rolled_back" && rollback.lost == 0 &&
                           rollback.active_version == 1;

  // --- Machine-readable exports. -------------------------------------------
  {
    std::ofstream json("BENCH_quantized.json");
    json << "{\n  \"bench\": \"quantized_inference\",\n"
         << "  \"speedup_target\": " << TextTable::num(kSpeedupTarget, 2) << ",\n"
         << "  \"min_winning_apps\": " << kMinWinningApps << ",\n"
         << "  \"winning_apps\": " << wins << ",\n  \"apps\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const AppResult& r = results[i];
      json << "    {\"app\": \"" << r.name << "\", \"speedup\": "
           << TextTable::num(r.speedup, 3) << ", \"fp32_rows_per_s\": "
           << TextTable::num(r.fp32_rows_per_s, 1) << ", \"int8_rows_per_s\": "
           << TextTable::num(r.int8_rows_per_s, 1) << ", \"fp32_qoi\": "
           << TextTable::num(r.fp32_qoi, 6) << ", \"int8_qoi\": "
           << TextTable::num(r.int8_qoi, 6) << ", \"qoi_met\": "
           << (r.qoi_ok ? "true" : "false") << ", \"kernels\": \"" << r.kernels
           << "\"}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"rollout\": {\n"
         << "    \"clean\": {\"state\": \"" << promote.state << "\", \"lost\": "
         << promote.lost << ", \"breaker_trips\": " << promote.breaker_trips
         << ", \"active_version\": " << promote.active_version << "},\n"
         << "    \"mis_calibrated\": {\"state\": \"" << rollback.state
         << "\", \"lost\": " << rollback.lost << ", \"active_version\": "
         << rollback.active_version << "}\n  }\n}\n";
  }
  std::cout << "wrote BENCH_quantized.json\n";
  if (!obs::export_prometheus_file("BENCH_quantized.prom", orc.stats().metrics())) {
    std::cout << "FAIL: prometheus export\n";
    return 1;
  }
  std::cout << "wrote BENCH_quantized.prom\n";

  if (!apps_ok) std::cout << "FAIL: fewer than " << kMinWinningApps
                          << " apps reached the speedup + QoI gate\n";
  if (!promote_ok) std::cout << "FAIL: clean quantized candidate did not promote cleanly\n";
  if (!rollback_ok) std::cout << "FAIL: mis-calibrated candidate was not rolled back\n";
  const bool pass = apps_ok && promote_ok && rollback_ok;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
