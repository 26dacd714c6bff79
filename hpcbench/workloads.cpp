#include "workloads.hpp"

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "apps/registry.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "nn/topology.hpp"
#include "obs/exposition.hpp"
#include "runtime/cluster.hpp"
#include "runtime/deployment.hpp"
#include "runtime/orchestrator.hpp"
#include "tensor/ops.hpp"

namespace hpcbench {
namespace {

using namespace ahn;
using Clock = std::chrono::steady_clock;

constexpr double kMu = 0.1;               // Eqn-3 acceptance bound
constexpr std::size_t kSetupRepeats = 3;  // set-ups per untraced run; setup_s is their median
constexpr std::size_t kInsituPool = 2048;  // Canneal problems
constexpr std::size_t kInsituStep = 16;    // problems per application step
constexpr std::size_t kRanks = 3;
constexpr std::size_t kRankStep = 32;                       // rows per rank step
constexpr std::size_t kRanksPool = kRanks * kRankStep * 8;  // Blackscholes rows
constexpr std::size_t kShards = 2;
constexpr auto kScrapePeriod = std::chrono::seconds(1);
// Step samples reserved up front, so the benchmark's own buffers do not
// make peak RSS jump with vector regrowth (a 30 s ranks run fits).
constexpr std::size_t kStepReserve = 1 << 17;
// Steps per block of the step tail (see block_tail_percentiles): a 30 s
// run has about 20 blocks in insitu and 50 in ranks, each with 20 steps
// beyond its p99.
constexpr std::size_t kTailBlock = 2000;
constexpr std::size_t kProbeRepeats = 400;
constexpr double kInf = std::numeric_limits<double>::infinity();

const std::string kInsituModel = "canneal";
const std::string kInsituIn = "canneal.in";
const std::string kInsituOut = "canneal.out";
const std::string kRanksModel = "blackscholes";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double value_or_inf(std::optional<double> v) { return v.value_or(kInf); }

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) out += (out.size() > 1 ? ", " : "") + std::to_string(v);
  return out + "]";
}

/// The build budget and seed of every set-up and staged build. Fixed rather
/// than drawn from the workload seed, so the build work, the model and
/// model_fe are the same in every run.
core::Config build_config() {
  core::Config c;
  c.outer_iterations = 2;
  c.inner_iterations = 3;
  c.seed = 42;
  return c;
}

/// The problem pools served are fixed too, drawn away from the build's
/// stream. The workload seed orders them: each pass over a pool is a
/// fresh seeded permutation (PassOrder). A seed-drawn pool would change the
/// work itself from seed to seed: in ranks one miss more or less in a pool
/// of 768 moved throughput by 5-10%.
constexpr std::uint64_t kPoolSeed = 0x6a09e667f3bcc909ULL;

Tensor row_tensor(std::span<const double> values) {
  return Tensor({1, values.size()}, std::vector<double>(values.begin(), values.end()));
}

std::uint64_t content_hash(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

template <typename Fn>
double time_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ per-layer table

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A workload that does not
/// exercise a layer reports 0 for it.
constexpr LayerMetric kLayerMetrics[] = {
    {"runtime.put_us", "us"},           {"runtime.unpack_us", "us"},
    {"runtime.run_model_us", "us"},     {"runtime.serve_overhead_us", "us"},
    {"autoencoder.encode_b1_us", "us"}, {"nn.predict_b1_us", "us"},
    {"tensor.gemm_b1_us", "us"},        {"apps.qoi_us", "us"},
    {"apps.fallback_ms", "ms"},         {"apps.fallback_share", "share"},
    {"cluster.submit_us", "us"},        {"cluster.wait_ms", "ms"},
    {"runtime.batch_rows", "count"},    {"nn.predict_b32_us", "us"},
    {"tensor.gemm_b32_us", "us"},       {"runtime.qoi_fallback_share", "share"},
    {"obs.scrape_ms", "ms"},            {"core.acquire_s", "s"},
    {"core.make_task_s", "s"},          {"core.evaluate_s", "s"},
    {"nas.search_s", "s"},              {"nas.retrain_s", "s"},
    {"nas.candidates", "count"},        {"nas.feasible_share", "share"},
    {"nn.train_epoch_ms", "ms"},        {"autoencoder.train_s", "s"},
    {"tensor.gemm_train_us", "us"},     {"bench.trace_overhead_share", "share"},
    {"step_p99_ms", "ms"},
};

class LayerValues {
 public:
  void set(const std::string& name, double value) {
    const bool known = std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                                   [&](const LayerMetric& m) { return name == m.name; });
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
    values_[name] = value;
  }
  /// p50 of the spans called `span`, scaled from microseconds.
  void set_span_p50(const std::string& name, const SpanLog& spans, const char* span,
                    double scale = 1.0) {
    set(name, scale * median(spans.durations_us(span)).value_or(0.0));
  }
  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = values_.find(m.name);
      out.push_back({m.name, it == values_.end() ? 0.0 : it->second, m.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// p50 of `repeats` timed calls of `fn`, in microseconds.
template <typename Fn>
double probe_p50_us(std::size_t repeats, Fn&& fn) {
  std::vector<double> us(repeats);
  for (double& u : us) u = time_us(fn);
  return median(std::move(us)).value_or(0.0);
}

/// ops::matmul of an m x in by in x hidden operand pair, p50 in microseconds.
double gemm_p50_us(std::size_t m, std::size_t in, std::size_t hidden) {
  const Tensor a = Tensor::full({m, in}, 0.5);
  const Tensor b = Tensor::full({in, hidden}, 0.25);
  double sink = 0.0;
  const double us = probe_p50_us(kProbeRepeats, [&] { sink += ops::matmul(a, b)[0]; });
  if (sink != sink) throw std::runtime_error("gemm probe produced NaN");
  return us;
}

// -------------------------------------------------------------- set-up parts

/// A surrogate built by the full pipeline, as a serving workload's set-up
/// makes it, wrapped for deployment.
struct Built {
  std::unique_ptr<apps::Application> app;
  core::PipelineResult result;
  double build_seconds = 0.0;
  std::shared_ptr<runtime::ServableModel> servable;
  Tensor train_x;  ///< training inputs: the drift reference of the deployment
};

Built build_servable(const std::string& app_name) {
  Built b;
  const core::Config cfg = build_config();
  b.app = apps::make_application(app_name);
  const auto t0 = Clock::now();
  b.result = core::AutoHPCnet(cfg).run(*b.app);
  b.build_seconds = seconds_since(t0);

  const nas::PipelineModel& pm = b.result.model;
  auto m = std::make_shared<runtime::ServableModel>();
  if (pm.encoder != nullptr) {
    auto encoder = pm.encoder;
    m->encode = [encoder](const Tensor& x) { return encoder->encode(x); };
    m->encode_ops = encoder->encode_cost(1);
  }
  m->surrogate = pm.surrogate;
  m->infer_ops = pm.surrogate.net.inference_cost(1);
  b.servable = std::move(m);

  const std::size_t n_train =
      cfg.train_problems > 0 ? cfg.train_problems : b.app->recommended_train_problems();
  b.train_x = Tensor({n_train, b.app->input_dim()});
  for (std::size_t i = 0; i < n_train; ++i) {
    const std::vector<double> f = b.app->input_features(i);
    std::copy(f.begin(), f.end(), b.train_x.row(i).begin());
  }
  return b;
}

/// The problems a serving workload answers, with each problem's exact region
/// outputs, the surrogate's outputs and its Eqn-3 verdict, computed once in
/// set-up.
struct Pool {
  std::unique_ptr<apps::Application> app;
  std::vector<Tensor> rows;  ///< 1 x F request rows
  std::vector<std::vector<double>> exact;
  std::vector<std::vector<double>> predicted;
  std::vector<char> hit;
  std::unordered_map<std::uint64_t, std::size_t> by_content;

  /// The problem whose request row is `row` (callbacks see only the row).
  [[nodiscard]] std::optional<std::size_t> find(const Tensor& row) const {
    const auto it = by_content.find(content_hash(row.flat()));
    if (it == by_content.end() || rows[it->second].size() != row.size() ||
        std::memcmp(rows[it->second].data(), row.data(), row.size() * sizeof(double)) != 0) {
      return std::nullopt;
    }
    return it->second;
  }
};

Pool make_pool(const std::string& app_name, std::size_t size,
               const nas::PipelineModel& model) {
  Pool p;
  p.app = apps::make_application(app_name);
  p.app->generate_problems(size, kPoolSeed);
  for (std::size_t i = 0; i < size; ++i) {
    const std::vector<double> features = p.app->input_features(i);
    p.rows.push_back(row_tensor(features));
    p.exact.push_back(p.app->run_region(i).outputs);
    p.predicted.push_back(model.infer(features));
    p.hit.push_back(p.app->qoi_error(i, p.exact[i], p.predicted[i]) <= kMu ? 1 : 0);
    p.by_content.emplace(content_hash(features), i);
  }
  return p;
}

/// Set-up, repeated kSetupRepeats times in an untraced run and once in a
/// traced one. Keeps the last state and every duration, and checks that
/// each repeat produced the same predictions as the first.
template <typename Setup>
auto repeated_setup(const Options& o, Setup&& setup, std::vector<double>& setup_s,
                    OutputCheck& check) {
  decltype(setup()) state;
  std::vector<std::vector<double>> first;
  for (std::size_t r = 0; r < (o.trace ? 1 : kSetupRepeats); ++r) {
    state.reset();
    const auto t0 = Clock::now();
    state = setup();
    setup_s.push_back(seconds_since(t0));
    const std::vector<std::vector<double>>& predicted = state->pool.predicted;
    if (r == 0) {
      first = predicted;
    } else {
      for (std::size_t i = 0; i < first.size(); ++i) {
        check.expect_equal(predicted[i], first[i], "repeated set-up, problem", i);
      }
    }
  }
  return state;
}

// ---------------------------------------------------------- serving phases

/// What one timed serving phase measured.
struct ServePhase {
  explicit ServePhase(std::size_t pool) : windows(1.0), tally(pool) {
    step_ms.reserve(kStepReserve);
  }
  double elapsed_s = 0.0;
  std::uint64_t attempted = 0, failed = 0, answered = 0;
  std::vector<double> step_ms;  ///< failed steps count as +inf
  WindowCounter windows;        ///< rows answered per 1 s window
  PassTally tally;
  double batch_rows = 0.0;
  std::uint64_t runtime_fallbacks = 0;
};

/// Rows answered per second: the median over the phase's 1 s windows. On a
/// shared VM one stall of a few seconds cost a 20 s run 25% of its
/// whole-phase rate; it moves this median by nothing.
double rows_per_s(const ServePhase& ph) {
  return value_or_inf(ph.windows.median_rate(ph.elapsed_s));
}

double whole_phase_rows_per_s(const ServePhase& ph) {
  return static_cast<double>(ph.answered) / ph.elapsed_s;
}

/// Step p99: the median over blocks of kTailBlock steps of each block's p99.
/// It is a per-layer metric, not an end-to-end one: a slow-host episode that
/// covered whole runs multiplied it by 3.5 (rows/s by 1.75), so two such
/// runs in ten put its quartile spread at 77%.
double step_p99_ms(const ServePhase& ph) {
  return value_or_inf(median(block_tail_percentiles(ph.step_ms, 0.99, kTailBlock)));
}

void add_serving_metrics(const ServePhase& ph, std::vector<Metric>& out, Info& info) {
  out.push_back({"rows_per_s", rows_per_s(ph), "rows/s"});
  out.push_back({"step_p50_ms", value_or_inf(median(ph.step_ms)), "ms"});
  out.push_back({"hit_rate", share(ph.tally.hits(), ph.tally.problems()), "share"});
  info.emplace_back("steps", std::to_string(ph.step_ms.size()));
  info.emplace_back("step_p99_ms", std::to_string(step_p99_ms(ph)));
  info.emplace_back("whole_run_step_p99_ms",
                    std::to_string(value_or_inf(tail_percentile(ph.step_ms, 0.99))));
  info.emplace_back("pool_passes", std::to_string(ph.tally.passes()));
  info.emplace_back("timed_s", std::to_string(ph.elapsed_s));
  info.emplace_back("whole_phase_rows_per_s", std::to_string(whole_phase_rows_per_s(ph)));
}

// ------------------------------------------------------------------ insitu

struct Insitu {
  Built built;
  Pool pool;
  std::unique_ptr<runtime::Orchestrator> orc;
};

std::unique_ptr<Insitu> setup_insitu() {
  auto s = std::make_unique<Insitu>();
  s->built = build_servable("Canneal");
  s->orc = std::make_unique<runtime::Orchestrator>();
  s->orc->deploy(runtime::DeploymentPackage::build(kInsituModel, s->built.servable,
                                                   s->built.train_x));
  s->pool = make_pool("Canneal", kInsituPool, s->built.result.model);
  return s;
}

/// Listing 1 in an application time loop: each step answers 16 problems one
/// at a time (put -> run_model -> unpack), checks Eqn 3 against the exact
/// reference and re-runs the exact region on a miss. Stops at the first
/// pool-pass boundary after `seconds`.
ServePhase insitu_phase(Insitu& s, std::uint64_t seed, double seconds, SpanLog& spans,
                        OutputCheck& check) {
  runtime::Client client(*s.orc);
  const apps::Application& app = *s.pool.app;
  ServePhase ph(kInsituPool);
  PassOrder order(kInsituPool, seed);
  const auto t0 = Clock::now();
  const auto deadline = after(seconds);
  while (!(ph.tally.at_pass_boundary() && Clock::now() >= deadline)) {
    const auto step_t0 = Clock::now();
    const std::uint64_t answered0 = ph.answered;
    bool step_ok = true;
    {
      const SpanLog::Scope step(spans, "insitu.step");
      for (std::size_t k = 0; k < kInsituStep; ++k) {
        const std::size_t next = order.next();
        ++ph.attempted;
        {
          const SpanLog::Scope span(spans, "runtime.put");
          client.put_tensor(kInsituIn, s.pool.rows[next]);
        }
        Status status;
        {
          const SpanLog::Scope span(spans, "runtime.run_model");
          status = client.run_model(kInsituModel, kInsituIn, kInsituOut);
        }
        if (!status.is_ok()) {
          ++ph.failed;
          step_ok = false;
          ph.tally.record(false, false);
          continue;
        }
        Tensor out;
        {
          const SpanLog::Scope span(spans, "runtime.unpack");
          out = client.unpack_tensor(kInsituOut);
        }
        check.expect_equal(out.flat(), s.pool.predicted[next], "insitu output, problem", next);
        double err = 0.0;
        {
          const SpanLog::Scope span(spans, "apps.qoi");
          err = app.qoi_error(next, s.pool.exact[next], out.flat());
        }
        const bool hit = err <= kMu;
        if (!hit) {
          apps::RegionRun rerun;
          {
            const SpanLog::Scope span(spans, "apps.fallback");
            rerun = app.run_region(next);
          }
          check.expect_equal(rerun.outputs, s.pool.exact[next], "insitu fallback, problem", next);
        }
        ph.tally.record(hit, !hit);
        ++ph.answered;
      }
    }
    ph.step_ms.push_back(step_ok ? 1e3 * seconds_since(step_t0) : kInf);
    ph.windows.add(seconds_since(t0), static_cast<double>(ph.answered - answered0));
  }
  ph.elapsed_s = seconds_since(t0);
  return ph;
}

/// Layer probes on the deployed model: run_model next to directly timed
/// encode + predict of the same row, and the first-layer GEMM at m = 1.
void insitu_probes(Insitu& s, LayerValues& layers, OutputCheck& check) {
  runtime::Client client(*s.orc);
  const nas::PipelineModel& pm = s.built.result.model;
  std::vector<double> encode_us, predict_us, overhead_us;
  for (std::size_t i = 0; i < kInsituPool; ++i) {
    client.put_tensor(kInsituIn, s.pool.rows[i]);
    Status status;
    const double run_us =
        time_us([&] { status = client.run_model(kInsituModel, kInsituIn, kInsituOut); });
    if (!status.is_ok()) check.fail("insitu probe: run_model returned " + status.to_string());
    Tensor reduced, pred;
    const double enc = time_us([&] {
      reduced = pm.encoder != nullptr ? pm.encoder->encode(s.pool.rows[i]) : s.pool.rows[i];
    });
    const double prd = time_us([&] { pred = pm.surrogate.predict(reduced); });
    check.expect_equal(pred.flat(), s.pool.predicted[i], "insitu probe, problem", i);
    encode_us.push_back(enc);
    predict_us.push_back(prd);
    overhead_us.push_back(run_us - enc - prd);
  }
  if (pm.encoder != nullptr) layers.set("autoencoder.encode_b1_us", *median(encode_us));
  layers.set("nn.predict_b1_us", *median(predict_us));
  layers.set("runtime.serve_overhead_us", *median(overhead_us));
  const std::size_t in = pm.encoder != nullptr ? pm.latent_k : s.pool.app->input_dim();
  layers.set("tensor.gemm_b1_us", gemm_p50_us(1, in, pm.spec.hidden_units));
}

// ------------------------------------------------------------------- ranks

struct Ranks {
  Built built;
  Pool pool;
  SpanLog* spans = nullptr;
  std::atomic<std::uint64_t> fallback_calls{0};
  std::atomic<std::uint64_t> lookup_failures{0};
  // Declared last, so it drains and joins its threads (which call the
  // callbacks reading the members above) before they are destroyed.
  std::unique_ptr<runtime::ClusterOrchestrator> cluster;
};

std::unique_ptr<Ranks> setup_ranks(SpanLog& spans) {
  auto s = std::make_unique<Ranks>();
  s->spans = &spans;
  s->built = build_servable("Blackscholes");
  s->pool = make_pool("Blackscholes", kRanksPool, s->built.result.model);

  Ranks* st = s.get();
  auto model = std::make_shared<runtime::ServableModel>(*s->built.servable);
  model->qoi_check = [st](const Tensor& in, const Tensor& out) {
    const SpanLog::Scope span(*st->spans, "apps.qoi");
    const std::optional<std::size_t> i = st->pool.find(in);
    if (!i) {
      st->lookup_failures.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return st->pool.app->qoi_error(*i, st->pool.exact[*i], out.flat()) <= kMu;
  };
  model->fallback = [st](const Tensor& in) {
    const SpanLog::Scope span(*st->spans, "apps.fallback");
    st->fallback_calls.fetch_add(1, std::memory_order_relaxed);
    const std::optional<std::size_t> i = st->pool.find(in);
    if (!i) {
      st->lookup_failures.fetch_add(1, std::memory_order_relaxed);
      return Tensor::full({1, st->pool.app->output_dim()}, std::nan(""));
    }
    return row_tensor(st->pool.app->run_region(*i).outputs);
  };

  runtime::ClusterOptions copts;
  copts.shards = kShards;
  s->cluster = std::make_unique<runtime::ClusterOrchestrator>(copts);
  s->cluster->deploy(runtime::DeploymentPackage::build(kRanksModel, model, s->built.train_x));
  return s;
}

/// One closed-loop rank: submit 32 rows, wait for all 32, check each
/// against the surrogate's output (or the exact one where the fallback
/// served it), repeat; stops at its first pool-pass boundary after the
/// deadline. Each rank visits the pool in its own seeded order.
void rank_loop(Ranks& s, std::uint64_t seed, Clock::time_point start,
               Clock::time_point deadline, SpanLog& spans, OutputCheck& check, ServePhase& ph) {
  std::vector<std::future<Result<Tensor>>> futures(kRankStep);
  std::vector<std::size_t> ids(kRankStep);
  PassOrder order(kRanksPool, seed);
  while (!(ph.tally.at_pass_boundary() && Clock::now() >= deadline)) {
    const auto t0 = Clock::now();
    {
      const SpanLog::Scope step(spans, "ranks.step");
      for (std::size_t j = 0; j < kRankStep; ++j) {
        ids[j] = order.next();
        const SpanLog::Scope span(spans, "cluster.submit");
        futures[j] = s.cluster->run_model_batched(kRanksModel, s.pool.rows[ids[j]]);
      }
      const SpanLog::Scope span(spans, "cluster.wait");
      for (auto& f : futures) f.wait();
    }
    const double step_ms = 1e3 * seconds_since(t0);
    const std::uint64_t answered0 = ph.answered;
    bool step_ok = true;
    for (std::size_t j = 0; j < kRankStep; ++j) {
      ++ph.attempted;
      const Result<Tensor> r = futures[j].get();
      const std::size_t i = ids[j];
      if (!r.is_ok()) {
        ++ph.failed;
        step_ok = false;
        ph.tally.record(false, false);
        continue;
      }
      const bool hit = s.pool.hit[i] != 0;
      check.expect_equal(r.value().flat(), hit ? s.pool.predicted[i] : s.pool.exact[i],
                         "ranks output, row", i);
      ph.tally.record(hit, !hit);
      ++ph.answered;
    }
    ph.step_ms.push_back(step_ok ? step_ms : kInf);
    ph.windows.add(std::chrono::duration<double>(t0 - start).count() + 1e-3 * step_ms,
                   static_cast<double>(ph.answered - answered0));
  }
}

ServePhase ranks_phase(Ranks& s, std::uint64_t seed, double seconds, SpanLog& spans,
                       OutputCheck& check) {
  const auto served = [&s] {
    std::uint64_t rows = 0, batches = 0;
    for (std::size_t i = 0; i < s.cluster->shard_count(); ++i) {
      const ServingStatsSnapshot snap = s.cluster->shard(i).stats().snapshot();
      rows += snap.requests_served;
      batches += snap.batches_executed;
    }
    return std::pair{rows, batches};
  };
  const auto [rows0, batches0] = served();
  const std::uint64_t fallbacks0 = s.fallback_calls.load();

  std::vector<ServePhase> outs;
  for (std::size_t r = 0; r < kRanks; ++r) outs.emplace_back(kRanksPool);
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  // guarded by mu
  std::thread scraper([&] {
    std::unique_lock lock(mu);
    do {
      lock.unlock();
      try {
        const SpanLog::Scope span(spans, "obs.scrape");
        const runtime::ClusterHealth health = s.cluster->cluster_health();
        if (obs::export_prometheus_string(health.merged).empty()) {
          check.fail("ranks: empty metrics exposition");
        }
      } catch (const std::exception& e) {
        check.fail(std::string("ranks scrape: ") + e.what());
      }
      lock.lock();
    } while (!cv.wait_for(lock, kScrapePeriod, [&] { return stop; }));
  });

  const auto t0 = Clock::now();
  const auto deadline = after(seconds);
  std::vector<std::thread> ranks;
  for (std::size_t r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      try {
        rank_loop(s, seed + 0x9e3779b97f4a7c15ULL * (r + 1), t0, deadline, spans, check,
                  outs[r]);
      } catch (const std::exception& e) {
        check.fail(std::string("rank thread: ") + e.what());
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  ServePhase ph(kRanksPool);
  ph.elapsed_s = seconds_since(t0);
  {
    const std::lock_guard lock(mu);
    stop = true;
  }
  cv.notify_all();
  scraper.join();

  for (const ServePhase& o : outs) {
    ph.attempted += o.attempted;
    ph.failed += o.failed;
    ph.answered += o.answered;
    ph.step_ms.insert(ph.step_ms.end(), o.step_ms.begin(), o.step_ms.end());
    ph.windows.merge(o.windows);
    ph.tally.merge(o.tally);
  }
  const auto [rows1, batches1] = served();
  ph.batch_rows = share(rows1 - rows0, batches1 - batches0);
  ph.runtime_fallbacks = s.fallback_calls.load() - fallbacks0;
  return ph;
}

void ranks_probes(Ranks& s, LayerValues& layers, OutputCheck& check) {
  const nas::PipelineModel& pm = s.built.result.model;
  const std::span<const Tensor> rows(s.pool.rows.data(), kRankStep);
  Tensor out;
  layers.set("nn.predict_b32_us",
             probe_p50_us(kProbeRepeats, [&] { out = pm.surrogate.predict_rows(rows); }));
  for (std::size_t j = 0; j < kRankStep; ++j) {
    check.expect_equal(out.row(j), s.pool.predicted[j], "ranks probe, row", j);
  }
  layers.set("tensor.gemm_b32_us",
             gemm_p50_us(kRankStep, s.pool.app->input_dim(), pm.spec.hidden_units));
}

// ---------------------------------------------------------------- offline

/// One build run stage by stage.
struct Staged {
  core::PipelineResult result;
  nas::SearchTask task;
  std::shared_ptr<sparse::Csr> sparse_storage;  ///< task.sparse_x points into it
};

/// AutoHPCnet::run (core/pipeline.cpp) called phase by phase, each phase
/// under its own span. The result must come out bitwise-equal to
/// AutoHPCnet::run's; check_same_build holds the two in step.
Staged staged_build(apps::Application& app, SpanLog& spans) {
  const core::Config cfg = build_config();
  const core::AutoHPCnet framework(cfg);
  Staged st;
  const SpanLog::Scope build_span(spans, "build");

  const std::size_t n_train =
      cfg.train_problems > 0 ? cfg.train_problems : app.recommended_train_problems();
  const std::size_t total = n_train + cfg.valid_problems + cfg.eval_problems;
  app.generate_problems(total, cfg.seed);
  std::vector<std::size_t> all(total);
  std::iota(all.begin(), all.end(), 0);
  const std::span<const std::size_t> train_ids(all.data(), n_train);
  const std::span<const std::size_t> valid_ids(all.data() + n_train, cfg.valid_problems);
  const std::span<const std::size_t> eval_ids(all.data() + n_train + cfg.valid_problems,
                                              cfg.eval_problems);
  st.result.eval_problems.assign(eval_ids.begin(), eval_ids.end());

  nn::Dataset data;
  {
    const SpanLog::Scope span(spans, "core.acquire");
    data = framework.acquire_samples(app, train_ids);
  }
  {
    const SpanLog::Scope span(spans, "core.make_task");
    st.task = framework.make_task(app, std::move(data), valid_ids, st.sparse_storage);
  }
  {
    const SpanLog::Scope span(spans, "nas.search");
    st.result.search = nas::TwoDNas(cfg.nas_options()).search(st.task);
  }
  st.result.model = st.result.search.best;
  nas::PipelineModel& model = st.result.model;
  if (cfg.retrain_epochs > cfg.num_epoch && model.surrogate.net.layer_count() > 0) {
    const SpanLog::Scope span(spans, "nas.retrain");
    nas::SearchTask& task = st.task;
    task.train.epochs = cfg.retrain_epochs;
    task.train.patience = 30;
    nn::Dataset reduced;
    if (model.encoder != nullptr) {
      reduced.x = task.sparse_x != nullptr ? model.encoder->encode_sparse(*task.sparse_x)
                                           : model.encoder->encode(task.data.x);
      reduced.y = task.data.y;
    } else {
      reduced = task.data;
    }
    Rng retrain_rng(cfg.seed ^ 0x2e72a12ULL);  // AutoHPCnet::run's retrain stream
    nas::PipelineModel retrained =
        nas::evaluate_candidate(task, model.spec, model.encoder, reduced, retrain_rng);
    if (retrained.quality_error <= model.quality_error) model = std::move(retrained);
  }
  {
    const SpanLog::Scope span(spans, "core.evaluate");
    core::EvalOptions eopts;
    eopts.mu = cfg.mu;
    st.result.evaluation =
        core::evaluate_pipeline(app, eval_ids, model, st.task.device, eopts);
  }
  return st;
}

/// `got` is bitwise the build `want`: same f_e, K, topology and held-out
/// hit rate, and the same predictions on the held-out problems.
void check_same_build(const core::PipelineResult& got, const core::PipelineResult& want,
                      const apps::Application& app, OutputCheck& check) {
  check.expect_equal({&got.model.quality_error, 1}, {&want.model.quality_error, 1},
                     "staged build model_fe", 0);
  check.expect_equal({&got.evaluation.hit_rate, 1}, {&want.evaluation.hit_rate, 1},
                     "staged build hit_rate", 0);
  if (got.model.latent_k != want.model.latent_k ||
      got.model.spec.describe() != want.model.spec.describe()) {
    check.fail("staged build searched K=" + std::to_string(got.model.latent_k) + " " +
               got.model.spec.describe() + ", expected K=" +
               std::to_string(want.model.latent_k) + " " + want.model.spec.describe());
    return;
  }
  for (std::size_t p : want.eval_problems) {
    const std::vector<double> f = app.input_features(p);
    check.expect_equal(got.model.infer(f), want.model.infer(f),
                       "staged build output, problem", p);
  }
}

/// The offline layers, for a traced run: one staged build of the set-up's
/// application under spans, checked against the set-up's AutoHPCnet::run,
/// then single-call probes of training on the winning spec, autoencoder
/// training on MG's CSR input and the training-shaped GEMM.
void offline_layers(const Built& built, SpanLog& spans, LayerValues& layers,
                    OutputCheck& check) {
  const std::unique_ptr<apps::Application> app = apps::make_application(built.app->name());
  spans.set_enabled(true);
  const Staged st = staged_build(*app, spans);
  spans.set_enabled(false);
  check_same_build(st.result, built.result, *app, check);
  layers.set_span_p50("core.acquire_s", spans, "core.acquire", 1e-6);
  layers.set_span_p50("core.make_task_s", spans, "core.make_task", 1e-6);
  layers.set_span_p50("core.evaluate_s", spans, "core.evaluate", 1e-6);
  layers.set_span_p50("nas.search_s", spans, "nas.search", 1e-6);
  layers.set_span_p50("nas.retrain_s", spans, "nas.retrain", 1e-6);
  const nas::NasResult& search = st.result.search;
  layers.set("nas.candidates", static_cast<double>(search.evaluations()));
  const auto feasible = std::count_if(
      search.steps.begin(), search.steps.end(),
      [&](const nas::SearchStep& step) { return step.quality_error <= st.task.quality_bound; });
  layers.set("nas.feasible_share",
             share(static_cast<std::uint64_t>(feasible), search.evaluations()));

  const nas::PipelineModel& pm = st.result.model;
  nn::Dataset data;
  if (pm.encoder != nullptr) {
    data.x = st.task.sparse_x != nullptr ? pm.encoder->encode_sparse(*st.task.sparse_x)
                                         : pm.encoder->encode(st.task.data.x);
    data.y = st.task.data.y;
  } else {
    data = st.task.data;
  }
  nn::TrainOptions topts = st.task.train;
  topts.epochs = 20;
  topts.patience = topts.epochs;  // no early stop: every epoch is timed
  Rng rng(7);
  nn::Network net = nn::build_surrogate(pm.spec, data.in_features(), data.out_features(), rng);
  std::size_t epochs = 0;
  const double train_us = time_us([&] {
    epochs = nn::train_surrogate(std::move(net), data, topts).result.epochs_run;
  });
  layers.set("nn.train_epoch_ms",
             1e-3 * train_us / static_cast<double>(std::max<std::size_t>(epochs, 1)));
  layers.set("tensor.gemm_train_us",
             gemm_p50_us(st.task.train.batch_size, data.in_features(), pm.spec.hidden_units));

  // MG is the application with sparse input: its CSR rows are what
  // train_sparse consumes inside the search.
  const std::unique_ptr<apps::Application> mg = apps::make_application("MG");
  const core::Config cfg = build_config();
  std::vector<std::size_t> ids(mg->recommended_train_problems());
  std::iota(ids.begin(), ids.end(), 0);
  mg->generate_problems(ids.size(), cfg.seed);
  const sparse::Csr csr = mg->sparse_input_batch(ids);
  autoencoder::AutoencoderConfig acfg;
  acfg.latent_dim = 8;
  acfg.epochs = cfg.ae_epochs;
  acfg.encoding_loss_bound = cfg.encoding_loss;
  autoencoder::Autoencoder ae(mg->input_dim(), acfg);
  layers.set("autoencoder.train_s", 1e-6 * time_us([&] { (void)ae.train_sparse(csr); }));
}

// ---------------------------------------------------------------- workloads

void finish_trace(const Options& o, SpanLog& spans, Info& info) {
  if (!o.trace_file.empty() && !spans.write_chrome_trace(o.trace_file, 200'000)) {
    std::cerr << "hpcbench: cannot write " << o.trace_file << "\n";
  }
  for (const auto& [name, self_us] : spans.self_time_us()) {
    info.emplace_back("self_ms." + name, std::to_string(1e-3 * self_us));
  }
}

/// The end-to-end metrics of an untraced serving run.
RunResult serving_result(const ServePhase& ph, const std::vector<double>& setup_s,
                         const std::vector<double>& build_s, const Built& built, Info& info) {
  RunResult r;
  r.attempted = ph.attempted;
  r.failed = ph.failed;
  r.metrics.push_back({"setup_s", *median(setup_s), "s"});
  add_serving_metrics(ph, r.metrics, info);
  r.metrics.push_back({"build_s", *median(build_s), "s"});
  r.metrics.push_back({"model_fe", built.result.model.quality_error, "f_e"});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  info.emplace_back("setup_samples_s", json_list(setup_s));
  info.emplace_back("build_samples_s", json_list(build_s));
  info.emplace_back("latent_k", std::to_string(built.result.model.latent_k));
  return r;
}

/// The per-layer result of a traced run, from the layers measured so far
/// and the untraced and traced halves of the serving phase.
RunResult traced_result(const Options& o, const ServePhase& plain, const ServePhase& traced,
                        LayerValues& layers, SpanLog& spans, Info& info) {
  layers.set("apps.fallback_share", share(traced.tally.fallbacks(), traced.tally.problems()));
  layers.set("step_p99_ms", step_p99_ms(plain));
  // Whole-phase rates: defined however short the halves are.
  layers.set("bench.trace_overhead_share",
             1.0 - whole_phase_rows_per_s(traced) / whole_phase_rows_per_s(plain));
  finish_trace(o, spans, info);
  RunResult r;
  r.attempted = plain.attempted + traced.attempted;
  r.failed = plain.failed + traced.failed;
  r.metrics = layers.metrics();
  return r;
}

RunResult run_insitu(const Options& o, Info& info, SpanLog& spans, OutputCheck& check) {
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Insitu> s = repeated_setup(o, [&] {
    auto st = setup_insitu();
    build_s.push_back(st->built.build_seconds);
    return st;
  }, setup_s, check);
  if (!o.trace) {
    return serving_result(insitu_phase(*s, o.seed, o.seconds, spans, check), setup_s, build_s,
                          s->built, info);
  }
  // Offline layers first: once the serving runtime has run, a build in the
  // same process was measured up to 2.5x slower (ranks, Blackscholes).
  LayerValues layers;
  offline_layers(s->built, spans, layers, check);
  const ServePhase plain = insitu_phase(*s, o.seed, o.seconds / 2, spans, check);
  spans.set_enabled(true);
  const ServePhase traced = insitu_phase(*s, o.seed, o.seconds / 2, spans, check);
  spans.set_enabled(false);
  layers.set_span_p50("runtime.put_us", spans, "runtime.put");
  layers.set_span_p50("runtime.unpack_us", spans, "runtime.unpack");
  layers.set_span_p50("runtime.run_model_us", spans, "runtime.run_model");
  layers.set_span_p50("apps.qoi_us", spans, "apps.qoi");
  layers.set_span_p50("apps.fallback_ms", spans, "apps.fallback", 1e-3);
  insitu_probes(*s, layers, check);
  return traced_result(o, plain, traced, layers, spans, info);
}

RunResult run_ranks(const Options& o, Info& info, SpanLog& spans, OutputCheck& check) {
  // Serving threads the library starts take the process-wide team size,
  // which run.py sets to one thread per rank (OMP_NUM_THREADS=1). The
  // set-up on this thread is an offline job and keeps the host's full team.
  const int serving_threads = omp_get_max_threads();
  omp_set_num_threads(omp_get_num_procs());
  info.emplace_back("setup_omp_threads", std::to_string(omp_get_max_threads()));
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Ranks> s = repeated_setup(o, [&] {
    auto st = setup_ranks(spans);
    build_s.push_back(st->built.build_seconds);
    return st;
  }, setup_s, check);
  const auto checked = [&](ServePhase ph) {
    if (ph.runtime_fallbacks != ph.tally.fallbacks()) {
      check.fail("ranks: " + std::to_string(ph.runtime_fallbacks) + " fallback calls for " +
                 std::to_string(ph.tally.fallbacks()) + " misses");
    }
    if (s->lookup_failures.load() != 0) check.fail("ranks: callback got a row not in the pool");
    return ph;
  };
  if (!o.trace) {
    const ServePhase ph = checked(ranks_phase(*s, o.seed, o.seconds, spans, check));
    info.emplace_back("mean_batch_rows", std::to_string(ph.batch_rows));
    return serving_result(ph, setup_s, build_s, s->built, info);
  }
  LayerValues layers;
  offline_layers(s->built, spans, layers, check);  // before serving, as in run_insitu
  const ServePhase plain = checked(ranks_phase(*s, o.seed, o.seconds / 2, spans, check));
  spans.set_enabled(true);
  const ServePhase traced = checked(ranks_phase(*s, o.seed, o.seconds / 2, spans, check));
  spans.set_enabled(false);
  layers.set_span_p50("cluster.submit_us", spans, "cluster.submit");
  layers.set_span_p50("cluster.wait_ms", spans, "cluster.wait", 1e-3);
  layers.set_span_p50("obs.scrape_ms", spans, "obs.scrape", 1e-3);
  layers.set_span_p50("apps.qoi_us", spans, "apps.qoi");
  layers.set_span_p50("apps.fallback_ms", spans, "apps.fallback", 1e-3);
  layers.set("runtime.batch_rows", traced.batch_rows);
  layers.set("runtime.qoi_fallback_share", share(traced.runtime_fallbacks, traced.answered));
  omp_set_num_threads(serving_threads);  // probe the layers as served
  ranks_probes(*s, layers, check);
  return traced_result(o, plain, traced, layers, spans, info);
}

}  // namespace

bool known_workload(const std::string& name) { return name == "insitu" || name == "ranks"; }

RunResult run_workload(const Options& opts, Info& info) {
  info.emplace_back("omp_threads", std::to_string(omp_get_max_threads()));
  SpanLog spans(false);
  OutputCheck check;
  RunResult r = opts.workload == "insitu" ? run_insitu(opts, info, spans, check)
                                          : run_ranks(opts, info, spans, check);
  if (check.mismatches() > 0) {
    r.correct = false;
    info.emplace_back("failed_checks", std::to_string(check.mismatches()));
    info.emplace_back("first_failed_check", json_quote(check.first_mismatch()));
  }
  return r;
}

}  // namespace hpcbench
