// SLO + tracing observability bench (docs/OBSERVABILITY.md): gates the
// cluster-wide request-tracing and burn-rate-alerting pipeline end to end.
//
// Phase A — trace propagation + live scrape: a 2-shard cluster serves keyed
// batched requests with head sampling on; the gate requires at least one
// trace id whose spans cover every layer of one request (cluster root →
// route decision → shard serve → batch wait), then scrapes the embedded
// HTTP exposition server over a real socket and requires a valid
// OpenMetrics payload carrying >= 1 exemplar. The scraped body is written
// verbatim to BENCH_slo.prom so CI can re-validate it with
// tools/check_prom.py.
//
// Phase B — burn-rate alerting: the same cluster shape runs twice against a
// p99-style latency SLO with compressed windows (0.3s/1s/3s). The clean run
// must stay silent (zero slo_burn alerts, cluster.slo_burning == 0); the
// fault run (every request takes an injected latency spike far above the
// SLO threshold) must page within the fast window.
//
// Phase C — overhead: best-of-3 wall time for the same request stream with
// observability off (sampling disabled, no SLOs) vs on (default sampling +
// two SLOs). Gate: instrumented <= 1.05x baseline (plus a small absolute
// allowance for timer noise on tiny runs).
//
// Emits BENCH_slo.json and BENCH_slo.prom. Exits non-zero if any gate
// fails, so CI can gate on it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "nn/topology.hpp"
#include "obs/exposition.hpp"
#include "obs/http_server.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_injector.hpp"

namespace {

using namespace ahn;

constexpr std::size_t kInFeatures = 16;
constexpr std::size_t kOutFeatures = 4;
constexpr double kLatencyThreshold = 1e-3;  ///< SLO: served under 1ms modeled

std::shared_ptr<runtime::ServableModel> make_model() {
  Rng rng(11);
  nn::TopologySpec spec;
  spec.num_layers = 2;
  spec.hidden_units = 32;
  nn::Network net = nn::build_surrogate(spec, kInFeatures, kOutFeatures, rng);
  auto m = std::make_shared<runtime::ServableModel>();
  m->infer_ops = net.inference_cost(1);
  m->surrogate.net = std::move(net);
  return m;
}

std::vector<obs::SloSpec> bench_slos() {
  obs::SloSpec avail;
  avail.name = "availability";
  avail.kind = obs::SloKind::kAvailability;
  avail.objective = 0.999;
  obs::SloSpec p99;
  p99.name = "p99_latency";
  p99.kind = obs::SloKind::kLatency;
  p99.objective = 0.99;
  p99.threshold_seconds = kLatencyThreshold;
  // Compressed burn windows so one bench second spans the slow horizon.
  p99.fast_window_seconds = 0.3;
  p99.mid_window_seconds = 1.0;
  p99.slow_window_seconds = 3.0;
  avail.fast_window_seconds = 0.3;
  avail.mid_window_seconds = 1.0;
  avail.slow_window_seconds = 3.0;
  return {avail, p99};
}

runtime::ClusterOptions cluster_options(obs::Tracer* tracer,
                                        std::size_t sample_every,
                                        bool with_slos) {
  runtime::ClusterOptions opts;
  opts.shards = 2;
  opts.replication = 2;
  opts.shard_opts.max_batch = 1;              // submits execute inline
  opts.shard_opts.batch_flusher = false;  // no flusher thread
  opts.shard_opts.tracer = tracer;
  opts.shard_opts.trace_sample_every = sample_every;
  if (with_slos) opts.shard_opts.slos = bench_slos();
  return opts;
}

/// One-shot raw-socket HTTP GET against 127.0.0.1:port. Returns the full
/// response (headers + body); empty on connection failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

std::size_t count_occurrences(const std::string& text, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t at = text.find(pat); at != std::string::npos;
       at = text.find(pat, at + pat.size())) {
    ++n;
  }
  return n;
}

/// Serves `requests` keyed rows through the cluster; aborts on any failure.
void drive(runtime::ClusterOrchestrator& cluster, const std::vector<Tensor>& rows,
           std::size_t requests, const char* what) {
  for (std::size_t i = 0; i < requests; ++i) {
    auto f = cluster.run_model_batched("surrogate", rows[i % rows.size()],
                                       "req/" + std::to_string(i));
    if (!f.get().is_ok()) {
      std::cout << "FAIL: " << what << " request " << i << " failed\n";
      std::exit(1);
    }
  }
}

/// Serves rows for `seconds` of wall time (Phase B: burn windows are
/// time-based, so the stream must span them). Returns requests served.
std::size_t drive_for(runtime::ClusterOrchestrator& cluster,
                      const std::vector<Tensor>& rows, double seconds,
                      const char* what) {
  Timer wall;
  std::size_t i = 0;
  while (wall.seconds() < seconds) {
    auto f = cluster.run_model_batched("surrogate", rows[i % rows.size()],
                                       "req/" + std::to_string(i));
    if (!f.get().is_ok()) {
      std::cout << "FAIL: " << what << " request " << i << " failed\n";
      std::exit(1);
    }
    ++i;
  }
  return i;
}

std::uint64_t slo_alerts(runtime::ClusterOrchestrator& cluster) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    total += cluster.shard(s).alerts().raised(obs::AlertKind::kSloBurn);
  }
  return total;
}

}  // namespace

int main() {
  bench::print_header(
      "SLO observability: end-to-end tracing, burn-rate alerts, live scrape",
      "the ROADMAP observability item over the paper's §6.3 serving path");

  Rng rng(3);
  std::vector<Tensor> rows;
  rows.reserve(256);
  for (int i = 0; i < 256; ++i) {
    rows.push_back(Tensor::randn({1, kInFeatures}, rng));
  }

  // --- Phase A: one trace across the cluster + live /metrics scrape. -------
  obs::Tracer tracer;
  runtime::ClusterOrchestrator cluster(
      cluster_options(&tracer, /*sample_every=*/4, /*with_slos=*/true));
  cluster.set_model("surrogate", make_model());
  drive(cluster, rows, 64, "phase A");

  // Gate (a): at least one sampled request's spans cover every layer.
  std::map<std::uint64_t, std::set<std::string>> by_trace;
  for (const obs::SpanRecord& rec : tracer.snapshot().recent) {
    by_trace[rec.trace_id].insert(rec.name);
  }
  const std::vector<std::string> layers = {
      "cluster.run_model_batched", "cluster.route", "serve.run_model_batched",
      "batching.batch_wait"};
  std::size_t full_traces = 0;
  for (const auto& [id, names] : by_trace) {
    bool full = true;
    for (const std::string& layer : layers) full = full && names.count(layer) > 0;
    full_traces += full ? 1 : 0;
  }
  std::cout << "sampled traces: " << by_trace.size() << " (" << full_traces
            << " cover router->shard->batch)\n";

  // Gate (c): live scrape through the embedded HTTP server.
  obs::HttpServer& server = cluster.serve_exposition();
  const std::string metrics_res = http_get(server.port(), "/metrics");
  const std::string healthz_res = http_get(server.port(), "/healthz");
  const std::string slo_res = http_get(server.port(), "/slo");
  const std::string prom_body = body_of(metrics_res);
  const std::size_t exemplars = count_occurrences(prom_body, " # {trace_id=\"");
  const bool scrape_ok =
      metrics_res.find("HTTP/1.1 200") == 0 &&
      metrics_res.find("application/openmetrics-text") != std::string::npos &&
      prom_body.find("# EOF\n") != std::string::npos &&
      prom_body.find("# HELP") != std::string::npos && exemplars >= 1 &&
      healthz_res.find("HTTP/1.1 200") == 0 &&
      slo_res.find("\"p99_latency\"") != std::string::npos;
  std::cout << "live scrape: " << prom_body.size() << " bytes, " << exemplars
            << " exemplars, /healthz+/slo "
            << (scrape_ok ? "ok" : "FAILED") << "\n\n";
  {
    std::ofstream prom("BENCH_slo.prom");
    prom << prom_body;
  }
  std::cout << "wrote BENCH_slo.prom\n\n";

  // --- Phase B: burn alert fires on the fault run, silent on clean. --------
  const double run_seconds = 0.8;

  obs::Tracer clean_tracer;
  runtime::ClusterOrchestrator clean(cluster_options(&clean_tracer, 16, true));
  clean.set_model("surrogate", make_model());
  const std::size_t clean_requests = drive_for(clean, rows, run_seconds, "clean");
  const runtime::ClusterHealth clean_health = clean.cluster_health();
  const std::uint64_t clean_alerts = slo_alerts(clean);
  const double clean_burn = clean_health.merged.gauges.at("cluster.slo_burn_rate");

  obs::Tracer fault_tracer;
  runtime::ClusterOrchestrator faulty(cluster_options(&fault_tracer, 16, true));
  faulty.set_model("surrogate", make_model());
  runtime::FaultSpec fault;
  fault.latency_spike_prob = 1.0;       // every phase draw spikes...
  fault.latency_spike_seconds = 5e-3;   // ...5x past the 1ms SLO threshold
  for (std::size_t s = 0; s < 2; ++s) {
    faulty.shard(s).set_fault_injector(
        std::make_shared<runtime::FaultInjector>(fault));
  }
  const std::size_t fault_requests = drive_for(faulty, rows, run_seconds, "fault");
  const runtime::ClusterHealth fault_health = faulty.cluster_health();
  const std::uint64_t fault_alerts = slo_alerts(faulty);
  const double fault_burn = fault_health.merged.gauges.at("cluster.slo_burn_rate");

  TextTable burn_table({"run", "requests", "slo_burn alerts", "max burn rate",
                        "cluster.slo_burning"});
  burn_table.add_row({"clean", std::to_string(clean_requests),
                      std::to_string(clean_alerts), TextTable::num(clean_burn, 2),
                      TextTable::num(
                          clean_health.merged.gauges.at("cluster.slo_burning"), 0)});
  burn_table.add_row({"latency fault", std::to_string(fault_requests),
                      std::to_string(fault_alerts), TextTable::num(fault_burn, 2),
                      TextTable::num(
                          fault_health.merged.gauges.at("cluster.slo_burning"), 0)});
  std::cout << burn_table.render() << "\n";

  // --- Phase C: observability overhead, best-of-3. -------------------------
  const std::size_t overhead_requests = bench::scaled(6000, 600);
  const auto best_of_3 = [&](bool instrumented) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      obs::Tracer t;
      runtime::ClusterOrchestrator c(cluster_options(
          &t, instrumented ? 16 : 0, instrumented));
      c.set_model("surrogate", make_model());
      Timer wall;
      drive(c, rows, overhead_requests, "overhead");
      best = std::min(best, wall.seconds());
    }
    return best;
  };
  const double base_best = best_of_3(false);
  const double instr_best = best_of_3(true);
  const double overhead_ratio = instr_best / base_best;
  std::cout << "overhead: baseline " << TextTable::num(base_best, 4)
            << "s, instrumented " << TextTable::num(instr_best, 4) << "s ("
            << TextTable::num(overhead_ratio, 3) << "x, target <= 1.05x)\n\n";

  // --- Machine-readable exports. -------------------------------------------
  {
    std::ofstream json("BENCH_slo.json");
    json << "{\n  \"bench\": \"slo_observability\",\n"
         << "  \"traces\": {\"sampled\": " << by_trace.size()
         << ", \"full_router_shard_batch\": " << full_traces << "},\n"
         << "  \"scrape\": {\"bytes\": " << prom_body.size()
         << ", \"exemplars\": " << exemplars << ", \"ok\": "
         << (scrape_ok ? "true" : "false") << "},\n"
         << "  \"clean\": {\"requests\": " << clean_requests
         << ", \"alerts\": " << clean_alerts
         << ", \"burn\": " << TextTable::num(clean_burn, 4) << "},\n"
         << "  \"fault\": {\"requests\": " << fault_requests
         << ", \"alerts\": " << fault_alerts
         << ", \"burn\": " << TextTable::num(fault_burn, 4) << "},\n"
         << "  \"overhead\": {\"baseline_seconds\": "
         << TextTable::num(base_best, 6) << ", \"instrumented_seconds\": "
         << TextTable::num(instr_best, 6) << ", \"ratio\": "
         << TextTable::num(overhead_ratio, 4) << "}\n}\n";
  }
  std::cout << "wrote BENCH_slo.json\n";

  // --- Gates. ---------------------------------------------------------------
  const bool trace_ok = full_traces >= 1;
  const bool alert_ok = clean_alerts == 0 &&
                        clean_health.merged.gauges.at("cluster.slo_burning") == 0.0 &&
                        fault_alerts >= 1 && fault_burn > clean_burn;
  // 5% relative plus 5ms absolute: tiny scaled runs are timer-noise bound.
  const bool overhead_ok = instr_best <= base_best * 1.05 + 5e-3;
  if (!trace_ok) std::cout << "FAIL: no trace covers router->shard->batch\n";
  if (!scrape_ok) std::cout << "FAIL: live /metrics scrape invalid\n";
  if (!alert_ok) std::cout << "FAIL: burn alert gate (clean=" << clean_alerts
                           << " fault=" << fault_alerts << ")\n";
  if (!overhead_ok) std::cout << "FAIL: observability overhead above 5%\n";
  const bool pass = trace_ok && scrape_ok && alert_ok && overhead_ok;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
