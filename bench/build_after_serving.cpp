// Build-after-serving bench: does an offline build slow down once the
// serving runtime has run in the same process?
//
// Times the same Blackscholes build (the full AutoHPCnet pipeline, seed 42,
// 2 outer x 3 inner iterations), best of two, in three states of one
// process:
//   cold    — before any serving object exists;
//   idle    — after a 2-shard ClusterOrchestrator has served 32-row batched
//             steps from 3 client threads for a few seconds and gone idle,
//             still alive (flushers, pools and monitors in place);
//   closed  — after that cluster has been destroyed.
// Each build must pick the bitwise-same surrogate. Prints the three times
// and the idle/cold and closed/cold ratios; exits non-zero when the idle
// build takes more than 1.10x the cold one, or when the builds disagree.
// AHN_BENCH_SCALE in (0, 1] shortens the serving phase.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "runtime/cluster.hpp"
#include "runtime/deployment.hpp"

namespace {

using namespace ahn;

constexpr std::size_t kClients = 3;
constexpr std::size_t kStepRows = 32;
constexpr double kMaxIdleRatio = 1.10;

struct Build {
  double seconds = 0.0;
  core::PipelineResult result;
  std::unique_ptr<apps::Application> app;
};

/// Best of two builds: a host stall during one does not decide the ratio.
Build build_blackscholes() {
  core::Config cfg;
  cfg.outer_iterations = 2;
  cfg.inner_iterations = 3;
  cfg.seed = 42;
  Build b;
  b.app = apps::make_application("Blackscholes");
  b.seconds = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    const Timer t;
    b.result = core::AutoHPCnet(cfg).run(*b.app);
    b.seconds = std::min(b.seconds, t.seconds());
  }
  return b;
}

/// The surrogate's outputs on the first problems: two builds agree when
/// these are bitwise equal.
std::vector<double> fingerprint(const Build& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::vector<double> y = b.result.model.infer(b.app->input_features(i));
    out.insert(out.end(), y.begin(), y.end());
  }
  return out;
}

/// Serves closed-loop 32-row steps from kClients threads for `seconds`;
/// returns the rows answered.
std::size_t serve(runtime::ClusterOrchestrator& cluster, const Build& b, double seconds) {
  std::vector<Tensor> rows;
  for (std::size_t i = 0; i < 256; ++i) {
    const std::vector<double> f = b.app->input_features(i);
    rows.emplace_back(std::vector<std::size_t>{1, f.size()}, f);
  }
  std::atomic<std::size_t> answered{0};
  const Timer t;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::size_t next = c * 71;
      std::vector<std::future<Result<Tensor>>> futures(kStepRows);
      while (t.seconds() < seconds) {
        for (auto& f : futures) {
          f = cluster.run_model_batched("bs", rows[next++ % rows.size()]);
        }
        for (auto& f : futures) {
          if (f.get().is_ok()) answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  return answered.load();
}

}  // namespace

int main() {
  bench::print_header("Build after serving: offline build time next to an idle cluster",
                      "the offline build (§5) sharing a process with §7.3 serving");
  const double serve_seconds = 5.0 * bench::scale_factor();

  const Build cold = build_blackscholes();
  std::cout << "cold build: " << TextTable::num(cold.seconds, 3) << " s\n";

  Build idle;
  std::size_t answered = 0;
  {
    auto model = std::make_shared<runtime::ServableModel>();
    const nas::PipelineModel& pm = cold.result.model;
    if (pm.encoder != nullptr) {
      auto encoder = pm.encoder;
      model->encode = [encoder](const Tensor& x) { return encoder->encode(x); };
      model->encode_ops = encoder->encode_cost(1);
    }
    model->surrogate = pm.surrogate;
    model->infer_ops = pm.surrogate.net.inference_cost(1);
    Tensor train_x({256, cold.app->input_dim()});
    for (std::size_t i = 0; i < train_x.rows(); ++i) {
      const std::vector<double> f = cold.app->input_features(i);
      std::copy(f.begin(), f.end(), train_x.row(i).begin());
    }
    runtime::ClusterOptions copts;
    copts.shards = 2;
    runtime::ClusterOrchestrator cluster(copts);
    cluster.deploy(runtime::DeploymentPackage::build("bs", model, train_x));
    answered = serve(cluster, cold, serve_seconds);
    std::cout << "served " << answered << " rows in " << serve_seconds
              << " s; cluster idle\n";
    idle = build_blackscholes();
    std::cout << "build next to the idle cluster: " << TextTable::num(idle.seconds, 3)
              << " s\n";
  }
  const Build closed = build_blackscholes();
  std::cout << "build after the cluster closed: " << TextTable::num(closed.seconds, 3)
            << " s\n\n";

  const std::vector<double> want = fingerprint(cold);
  const auto same = [&](const Build& b) {
    const std::vector<double> got = fingerprint(b);
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0;
  };
  const bool identical = same(idle) && same(closed);
  const double idle_ratio = idle.seconds / cold.seconds;
  const double closed_ratio = closed.seconds / cold.seconds;

  TextTable table({"build", "seconds", "vs cold"});
  table.add_row({"cold", TextTable::num(cold.seconds, 3), "1.00x"});
  table.add_row({"idle cluster", TextTable::num(idle.seconds, 3),
                 TextTable::num(idle_ratio, 2) + "x"});
  table.add_row({"cluster closed", TextTable::num(closed.seconds, 3),
                 TextTable::num(closed_ratio, 2) + "x"});
  std::cout << table.render() << "\n"
            << "same surrogate from every build: " << (identical ? "yes" : "NO") << "\n"
            << "idle/cold ratio " << TextTable::num(idle_ratio, 2) << "x (target <= "
            << TextTable::num(kMaxIdleRatio, 2) << "x)\n";
  const bool ok = identical && answered > 0 && idle_ratio <= kMaxIdleRatio;
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
