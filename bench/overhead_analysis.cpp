// Reproduces §7.3 "Overhead Analysis": the offline phase breakdown (trace /
// sample generation, Bayesian optimization, autoencoder training) and the
// online inference breakdown (fetch / encode / load / run), whose paper
// reference is 21.2% / 10.1% / 1.6% / 67.1% of online time.

#include <iostream>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace ahn;
  bench::print_header("Overhead analysis (offline phases, online breakdown)",
                      "paper §7.3");

  core::Config cfg = bench::bench_config();
  for (int i = 1; i < argc; ++i) cfg.apply(argv[i]);
  const core::AutoHPCnet framework(cfg);

  // A sparse-input app (where the encoder matters) and a dense one.
  const std::vector<std::string> names{"CG", "fluidanimate", "miniQMC"};

  TextTable offline({"app", "sample gen (s)", "BO search (s)", "AE training (s)",
                     "offline total (s)"});
  TextTable online({"app", "fetch", "encode", "load", "run"});
  double fetch = 0, encode = 0, load = 0, run = 0;

  for (const std::string& name : names) {
    auto app = apps::make_application(name);
    const core::PipelineResult res = framework.run(*app);
    offline.add_row({name, TextTable::num(res.offline.sample_generation_seconds, 3),
                     TextTable::num(res.offline.search_seconds, 3),
                     TextTable::num(res.offline.autoencoder_seconds, 3),
                     TextTable::num(res.offline.total(), 3)});
    const RequestPhases& b = res.evaluation.breakdown;
    const double total = std::max(b.total(), 1e-30);
    online.add_row({name, TextTable::num(100.0 * b.fetch / total, 1) + "%",
                    TextTable::num(100.0 * b.encode / total, 1) + "%",
                    TextTable::num(100.0 * b.load / total, 1) + "%",
                    TextTable::num(100.0 * b.run / total, 1) + "%"});
    fetch += b.fetch;
    encode += b.encode;
    load += b.load;
    run += b.run;
  }

  std::cout << "offline phases (paper: trace gen 24-59 min, BO 6-13 h, AE 1.4-2.2 h\n"
               "on a DGX-1; laptop-scale budgets here — compare the ordering:\n"
               "BO dominates, then AE, then sample generation):\n\n"
            << offline.render() << "\n";

  const double total = std::max(fetch + encode + load + run, 1e-30);
  std::cout << "online breakdown per app:\n\n" << online.render() << "\n";
  TextTable avg({"phase", "measured", "paper"});
  avg.add_row({"(1) fetch input to device", TextTable::num(100.0 * fetch / total, 1) + "%",
               "21.2%"});
  avg.add_row({"(2) encode to low-dim features",
               TextTable::num(100.0 * encode / total, 1) + "%", "10.1%"});
  avg.add_row({"(3) load pre-trained model", TextTable::num(100.0 * load / total, 1) + "%",
               "1.6%"});
  avg.add_row({"(4) run surrogate + retrieve",
               TextTable::num(100.0 * run / total, 1) + "%", "67.1%"});
  std::cout << "average online-time split:\n\n" << avg.render();
  return 0;
}
