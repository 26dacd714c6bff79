// Ablation of Algorithm 2 (a DESIGN.md-called-out design choice): the
// hierarchical two-level Bayesian optimization versus (a) a flat joint BO
// over the concatenated (K, theta) vector — the encoding §5.2 argues
// against — and (b) fixed-K searches that skip the outer loop entirely.
// Reported: best feasible f_e / f_c and wall time at equal budgets.
//
// Extended with the population-based LTFB arms (docs/NAS.md): P independent
// 2D searchers with tournament elite exchange, at P in {1, 2, 4, 8}, each
// arm at an OpenMP team budget of P (one thread per worker). Each
// worker gets the SAME per-worker budget as the serial hierarchical arm
// (3 rounds x budget/3 inner iterations), so the ideal wall-clock of every
// LTFB arm equals the serial arm while total exploration scales with P.
// Two CI gates, both fatal (non-zero exit):
//   1. quality  — the P=8 population is same-or-better than hierarchical 2D
//      BO under the task's quality bound (the LTFB promise: more workers at
//      equal wall-clock must not cost quality);
//   2. determinism — the P=2 configuration is bitwise-identical when run
//      serially (TeamOfOne) and at team budgets 1, 2 and 4 (the ltfb.hpp
//      contract).
// Emits BENCH_nas_ltfb.json plus BENCH_nas_ltfb.prom for the CI smoke.

#include <omp.h>

#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "nas/baseline_searchers.hpp"
#include "nas/ltfb.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace ahn;

bool same_spec(const nn::TopologySpec& a, const nn::TopologySpec& b) {
  return a.kind == b.kind && a.num_layers == b.num_layers &&
         a.hidden_units == b.hidden_units && a.channels == b.channels &&
         a.kernel == b.kernel && a.pool == b.pool && a.residual == b.residual &&
         a.act == b.act;
}

/// Bitwise trajectory equality: every worker's step sequence and the global
/// elite must match exactly (timings excluded — they are wall-clock).
bool same_trajectory(const nas::PopulationResult& a, const nas::PopulationResult& b) {
  if (a.found_feasible != b.found_feasible) return false;
  if (a.best_worker != b.best_worker) return false;
  if (a.workers.size() != b.workers.size()) return false;
  for (std::size_t w = 0; w < a.workers.size(); ++w) {
    const auto& wa = a.workers[w];
    const auto& wb = b.workers[w];
    if (wa.steps.size() != wb.steps.size()) return false;
    for (std::size_t s = 0; s < wa.steps.size(); ++s) {
      const nas::SearchStep& sa = wa.steps[s];
      const nas::SearchStep& sb = wb.steps[s];
      if (sa.latent_k != sb.latent_k || !same_spec(sa.spec, sb.spec) ||
          sa.quality_error != sb.quality_error || sa.hit_share != sb.hit_share ||
          sa.modeled_infer_seconds != sb.modeled_infer_seconds) {
        return false;
      }
    }
  }
  return a.best.latent_k == b.best.latent_k && same_spec(a.best.spec, b.best.spec) &&
         a.best.quality_error == b.best.quality_error &&
         a.best.hit_share == b.best.hit_share &&
         a.best.modeled_infer_seconds == b.best.modeled_infer_seconds &&
         a.tournaments.size() == b.tournaments.size();
}

/// The population search at the calling thread's team budget `threads`.
nas::PopulationResult search_at_budget(const nas::PopulationOptions& popt,
                                       const nas::SearchTask& task, int threads) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  nas::PopulationResult res = nas::PopulationSearch(popt).search(task);
  omp_set_num_threads(saved);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahn;
  bench::print_header(
      "2D-NAS ablation: hierarchical vs flat joint vs fixed-K vs LTFB population",
      "paper §5.2's design rationale + docs/NAS.md tournament exchange");

  core::Config cfg = bench::bench_config();
  for (int i = 1; i < argc; ++i) cfg.apply(argv[i]);
  const core::AutoHPCnet framework(cfg);

  auto app = apps::make_application("MG");
  const std::size_t n_train = app->recommended_train_problems();
  app->generate_problems(n_train + cfg.valid_problems, cfg.seed);
  std::vector<std::size_t> train_ids(n_train);
  std::iota(train_ids.begin(), train_ids.end(), 0);
  std::vector<std::size_t> valid_ids(cfg.valid_problems);
  std::iota(valid_ids.begin(), valid_ids.end(), n_train);
  std::shared_ptr<sparse::Csr> sparse_storage;
  nas::SearchTask task = framework.make_task(
      *app, framework.acquire_samples(*app, train_ids), valid_ids, sparse_storage);

  const std::size_t budget = bench::scaled(12, 6);  // total candidate trainings

  TextTable table({"strategy", "feasible", "best f_e", "best f_c (us)", "evals",
                   "search s"});
  auto report = [&](const std::string& name, bool feasible,
                    const nas::PipelineModel& best, std::size_t evals, double secs) {
    table.add_row({name, feasible ? "yes" : "no",
                   TextTable::num(best.quality_error, 4),
                   TextTable::num(1e6 * best.modeled_infer_seconds, 2),
                   std::to_string(evals), TextTable::num(secs, 2)});
  };

  nas::NasResult hierarchical;
  {
    nas::NasOptions opts = cfg.nas_options();
    opts.outer_iterations = 3;
    opts.inner_iterations = budget / 3;
    const Timer t;
    hierarchical = nas::TwoDNas(opts).search(task);
    report("hierarchical 2D (Alg. 2)", hierarchical.found_feasible, hierarchical.best,
           hierarchical.steps.size(), t.seconds());
  }
  {
    nas::FlatJointOptions opts;
    opts.iterations = budget;
    opts.k_min = cfg.k_min;
    opts.k_max = cfg.k_max;
    opts.ae_epochs = cfg.ae_epochs;
    const Timer t;
    const nas::NasResult res = nas::FlatJointNas(opts).search(task);
    report("flat joint (K,theta) BO", res.found_feasible, res.best, res.steps.size(),
           t.seconds());
  }
  {
    // Fixed-K: inner search only, at a K the outer loop would have to guess.
    nas::NasOptions opts = cfg.nas_options();
    opts.search_type = nas::SearchType::FullInput;  // no reduction at all
    opts.inner_iterations = budget;
    const Timer t;
    const nas::NasResult res = nas::TwoDNas(opts).search(task);
    report("fixed: no reduction", res.found_feasible, res.best, res.steps.size(),
           t.seconds());
  }

  // --- LTFB population scaling curve -------------------------------------
  // Per-worker budget mirrors the serial hierarchical arm exactly, so the
  // ideal wall-clock is flat across P while exploration scales with P.
  auto ltfb_options = [&](std::size_t population) {
    nas::PopulationOptions popt;
    popt.nas = cfg.nas_options();
    popt.nas.inner_iterations = budget / 3;
    popt.population = population;
    popt.rounds = 3;
    return popt;
  };

  obs::MetricsRegistry reg;
  struct LtfbArm {
    std::size_t population = 0;
    nas::PopulationResult result;
    double seconds = 0.0;
  };
  std::vector<LtfbArm> arms;
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    const Timer t;
    nas::PopulationResult res = search_at_budget(ltfb_options(p), task, static_cast<int>(p));
    const double secs = t.seconds();
    report("LTFB population P=" + std::to_string(p), res.found_feasible, res.best,
           res.evaluations(), secs);
    reg.counter("nas.ltfb.evaluations").increment(res.evaluations());
    reg.counter("nas.ltfb.tournaments").increment(res.tournaments.size());
    const std::string prefix = "nas.ltfb.p" + std::to_string(p);
    reg.gauge(prefix + ".best_quality_error").set(res.best.quality_error);
    reg.gauge(prefix + ".best_infer_us").set(1e6 * res.best.modeled_infer_seconds);
    reg.gauge(prefix + ".search_seconds").set(secs);
    arms.push_back({p, std::move(res), secs});
  }

  // Gate 1: at equal ideal wall-clock, the P=8 population must reach
  // same-or-better validation quality than hierarchical 2D BO, without
  // buying that quality with a large latency regression (10% guard on the
  // modeled f_c).
  const nas::PopulationResult& ltfb8 = arms.back().result;
  const bool quality_ok =
      ltfb8.found_feasible &&
      (!hierarchical.found_feasible ||
       (ltfb8.best.quality_error <= hierarchical.best.quality_error &&
        ltfb8.best.modeled_infer_seconds <=
            1.10 * hierarchical.best.modeled_infer_seconds));
  reg.gauge("nas.ltfb.quality_gate_ok").set(quality_ok ? 1.0 : 0.0);

  // Gate 2: the determinism contract — the P=2 configuration must produce
  // bitwise-identical trajectories serially and at team budgets 1, 2 and 4.
  bool determinism_ok = true;
  {
    const nas::PopulationOptions popt = ltfb_options(2);
    nas::PopulationResult serial;
    {
      const TeamOfOne one;
      serial = nas::PopulationSearch(popt).search(task);
    }
    for (const int threads : {1, 2, 4}) {
      if (!same_trajectory(serial, search_at_budget(popt, task, threads))) {
        std::cout << "FAIL: P=2 trajectory diverged at a team budget of " << threads
                  << "\n";
        determinism_ok = false;
      }
    }
  }
  reg.gauge("nas.ltfb.determinism_ok").set(determinism_ok ? 1.0 : 0.0);

  std::cout << table.render()
            << "\nexpected shape: the hierarchical search matches or beats the flat\n"
               "joint encoding at equal budget (separating the K and theta GPs is\n"
               "the paper's §5.2 argument), beats no-reduction on f_c whenever\n"
               "reduction is viable, and the LTFB population at P=8 matches or\n"
               "beats the serial hierarchical arm at equal ideal wall-clock.\n";

  {
    std::ofstream json("BENCH_nas_ltfb.json");
    json << "{\n"
         << "  \"bench\": \"nas_ltfb\",\n"
         << "  \"budget_per_worker\": " << budget << ",\n"
         << "  \"hierarchical\": {\"feasible\": "
         << (hierarchical.found_feasible ? "true" : "false")
         << ", \"quality_error\": " << TextTable::num(hierarchical.best.quality_error, 6)
         << ", \"infer_us\": "
         << TextTable::num(1e6 * hierarchical.best.modeled_infer_seconds, 3) << "},\n"
         << "  \"arms\": [\n";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const LtfbArm& arm = arms[i];
      json << "    {\"population\": " << arm.population << ", \"feasible\": "
           << (arm.result.found_feasible ? "true" : "false")
           << ", \"quality_error\": "
           << TextTable::num(arm.result.best.quality_error, 6) << ", \"infer_us\": "
           << TextTable::num(1e6 * arm.result.best.modeled_infer_seconds, 3)
           << ", \"evaluations\": " << arm.result.evaluations()
           << ", \"tournaments\": " << arm.result.tournaments.size()
           << ", \"best_worker\": " << arm.result.best_worker
           << ", \"search_seconds\": " << TextTable::num(arm.seconds, 3) << "}"
           << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"quality_gate_ok\": " << (quality_ok ? "true" : "false") << ",\n"
         << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false") << "\n"
         << "}\n";
  }
  std::cout << "wrote BENCH_nas_ltfb.json\n";
  if (!obs::export_prometheus_file("BENCH_nas_ltfb.prom", reg)) {
    std::cout << "FAIL: prometheus export\n";
    return 1;
  }
  std::cout << "wrote BENCH_nas_ltfb.prom\n";

  if (!quality_ok) {
    std::cout << "FAIL: LTFB P=8 lost to the serial hierarchical arm at equal "
                 "wall-clock budget\n";
  }
  if (!determinism_ok) std::cout << "FAIL: LTFB determinism contract violated\n";
  const bool ok = quality_ok && determinism_ok;
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
