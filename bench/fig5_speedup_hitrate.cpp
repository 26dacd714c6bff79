// Reproduces Figure 5: whole-application speedup (Eqn 2) and prediction hit
// rate (Eqn 3) of Auto-HPCnet surrogates across the 11 applications of
// Table 2, plus the harmonic-mean speedup the paper headlines (5.50x).
//
// The paper evaluates 2000 input problems per app on a DGX-1; this harness
// runs the identical pipeline at laptop scale (see DESIGN.md for the
// device-model substitution). Shapes to compare: Blackscholes should lead,
// every app should beat 1x, and MG/Canneal/streamcluster/AMG are the apps
// whose hit rate may dip below 100%.

#include <iostream>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace ahn;
  bench::print_header("Figure 5: Auto-HPCnet speedup and HitRate",
                      "paper Fig. 5 and the 5.50x harmonic-mean claim");

  core::Config cfg = bench::bench_config();
  for (int i = 1; i < argc; ++i) cfg.apply(argv[i]);
  const core::AutoHPCnet framework(cfg);

  // "valid HitRate" is the searched model's hit share (ĥ) on the validation
  // problems that drove the search; HitRate is measured on held-out problems.
  TextTable table({"app", "type", "replaced function", "speedup", "HitRate",
                   "valid HitRate", "mean QoI err", "K", "topology"});
  std::vector<double> speedups;
  for (const std::string& name : apps::application_names()) {
    auto app = apps::make_application(name);
    const core::PipelineResult res = framework.run(*app);
    table.add_row({app->name(), apps::app_type_name(app->type()),
                   app->replaced_function(),
                   TextTable::num(res.evaluation.speedup) + "x",
                   TextTable::num(100.0 * res.evaluation.hit_rate, 1) + "%",
                   TextTable::num(100.0 * res.model.hit_share, 1) + "%",
                   TextTable::num(res.evaluation.mean_qoi_error, 4),
                   res.model.latent_k > 0 ? std::to_string(res.model.latent_k) : "full",
                   res.model.spec.describe()});
    speedups.push_back(res.evaluation.speedup);
    std::cout << "  [" << name << "] done: speedup "
              << TextTable::num(res.evaluation.speedup) << "x, hit rate "
              << TextTable::num(100.0 * res.evaluation.hit_rate, 1) << "%\n" << std::flush;
  }

  std::cout << "\n" << table.render();
  std::cout << "\nharmonic-mean speedup: " << TextTable::num(harmonic_mean(speedups), 2)
            << "x   (paper: 5.50x, range 1.89x - 16.8x)\n";
  return 0;
}
