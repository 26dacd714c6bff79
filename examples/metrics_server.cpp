// Metrics-server example (docs/OBSERVABILITY.md): stands up a small serving
// cluster, generates traffic with head-sampled tracing and two SLOs
// attached, and serves the live observability surface over HTTP:
//
//   /metrics  OpenMetrics text with per-bucket trace exemplars
//   /healthz  liveness JSON (per-shard alive flags)
//   /slo      per-shard burn-rate verdicts as JSON
//   /tracez   Chrome trace (load into chrome://tracing or Perfetto)
//
// Usage: metrics_server [port] [seconds]
//   port     bind port (default 0 = ephemeral; the real port is printed)
//   seconds  how long to keep serving after the warm-up traffic (default 5;
//            0 = scrape-and-exit immediately after printing the port, which
//            is what the CI smoke test uses)
//
// While the server is up the example keeps a background trickle of requests
// flowing so repeated scrapes show moving counters.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "nn/topology.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"

int main(int argc, char** argv) {
  using namespace ahn;

  const std::uint16_t port =
      argc > 1 ? static_cast<std::uint16_t>(std::atoi(argv[1])) : 0;
  const double serve_seconds = argc > 2 ? std::atof(argv[2]) : 5.0;

  // A 2-shard cluster with tracing on (every 4th request) and two SLOs with
  // window constants compressed so burn rates move while you watch.
  obs::Tracer tracer;
  runtime::ClusterOptions opts;
  opts.shards = 2;
  opts.replication = 2;
  opts.shard_opts.max_batch = 1;
  opts.shard_opts.batch_flusher = false;
  opts.shard_opts.tracer = &tracer;
  opts.shard_opts.trace_sample_every = 4;
  obs::SloSpec avail;
  avail.name = "availability";
  avail.kind = obs::SloKind::kAvailability;
  avail.objective = 0.999;
  avail.fast_window_seconds = 5.0;
  avail.mid_window_seconds = 30.0;
  avail.slow_window_seconds = 120.0;
  obs::SloSpec p99 = avail;
  p99.name = "p99_latency";
  p99.kind = obs::SloKind::kLatency;
  p99.objective = 0.99;
  p99.threshold_seconds = 1e-3;
  opts.shard_opts.slos = {avail, p99};

  runtime::ClusterOrchestrator cluster(opts);
  Rng rng(7);
  nn::TopologySpec spec;
  spec.num_layers = 2;
  spec.hidden_units = 32;
  nn::Network net = nn::build_surrogate(spec, 16, 4, rng);
  auto model = std::make_shared<runtime::ServableModel>();
  model->infer_ops = net.inference_cost(1);
  model->surrogate.net = std::move(net);
  cluster.set_model("surrogate", model);

  // Warm-up traffic so the first scrape already has histograms, spans, and
  // exemplars to show.
  const Tensor row = Tensor::randn({1, 16}, rng);
  for (int i = 0; i < 256; ++i) {
    auto f = cluster.run_model_batched("surrogate", row,
                                       "warm/" + std::to_string(i));
    if (!f.get().is_ok()) {
      std::cerr << "warm-up request failed\n";
      return 1;
    }
  }

  obs::HttpServer& server = cluster.serve_exposition(port);
  // CI greps for this exact line to discover the ephemeral port.
  std::cout << "metrics server listening on http://127.0.0.1:" << server.port()
            << "\n"
            << "  curl http://127.0.0.1:" << server.port() << "/metrics\n"
            << "  curl http://127.0.0.1:" << server.port() << "/healthz\n"
            << "  curl http://127.0.0.1:" << server.port() << "/slo\n"
            << "  curl http://127.0.0.1:" << server.port() << "/tracez\n"
            << std::flush;

  // A background trickle (~200 req/s) keeps the scraped counters moving.
  std::atomic<bool> done{false};
  std::thread traffic([&] {
    std::uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto f = cluster.run_model_batched("surrogate", row,
                                         "live/" + std::to_string(i++));
      (void)f.get();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  Timer wall;
  while (wall.seconds() < serve_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  done.store(true, std::memory_order_release);
  traffic.join();

  const runtime::ClusterHealth h = cluster.cluster_health();
  std::cout << "served " << h.requests_served << " requests ("
            << h.shards_alive << "/" << h.shards_total
            << " shards alive); shutting down\n";
  return 0;
}
