// Power-grid example (the paper's Fig. 2 scenario: replacing the power-flow
// solver in a grid simulation). Unlike the registry apps, this walks the
// COMPLETE user journey on a *custom* code region:
//
//   1. write the region against traced handles (the LLVM-Tracer stand-in),
//   2. let the compiler-based extractor identify input/output features from
//      the dynamic trace (DDDG + liveness),
//   3. generate training samples by Gaussian input perturbation (§3.1),
//   4. run the 2D NAS (hierarchical BO + autoencoder) under a quality bound,
//   5. deploy and check quality on fresh inputs.
//
// The region is a DC power-flow solve: B' theta = P (bus susceptance matrix
// against net injections), the linearized core of the MIPS solver the
// paper's power-grid example replaces.

#include <iostream>
#include <numeric>

#include "apps/solvers.hpp"
#include "common/table.hpp"
#include "nas/two_d_nas.hpp"
#include "sparse/generators.hpp"
#include "trace/features.hpp"
#include "trace/sampling.hpp"
#include "trace/traced.hpp"

namespace {

using namespace ahn;

constexpr std::size_t kBuses = 24;  // IEEE-RTS-sized toy grid

/// Fixed grid topology: ring + random chords, as a susceptance matrix.
sparse::Csr build_susceptance() {
  Rng rng(0x9a1dULL);
  sparse::Coo coo;
  coo.rows = coo.cols = kBuses;
  std::vector<double> diag(kBuses, 0.0);
  auto add_line = [&](std::size_t a, std::size_t b, double y) {
    coo.push(a, b, -y);
    coo.push(b, a, -y);
    diag[a] += y;
    diag[b] += y;
  };
  for (std::size_t i = 0; i < kBuses; ++i) {
    add_line(i, (i + 1) % kBuses, rng.uniform(4.0, 10.0));
  }
  for (int c = 0; c < 10; ++c) {
    const auto a = static_cast<std::size_t>(rng.uniform_index(kBuses));
    const auto b = static_cast<std::size_t>(rng.uniform_index(kBuses));
    if (a != b) add_line(a, b, rng.uniform(2.0, 6.0));
  }
  for (std::size_t i = 0; i < kBuses; ++i) {
    coo.push(i, i, diag[i] + 0.5);  // shunt term keeps it SPD
  }
  return sparse::Csr::from_coo(std::move(coo));
}

/// The user's annotated code region, written against traced handles so the
/// extractor can observe it. Solves B theta = P with CG (a few fixed sweeps
/// of traced arithmetic stand in for the full solve in the trace; the
/// actual numerics run below in `power_flow`).
void traced_power_flow_region(trace::TraceRecorder& rec, const sparse::Csr& b_matrix,
                              const std::vector<double>& injections) {
  trace::TracedArray p(rec, "P_injections", injections, true);
  trace::TracedArray theta(rec, "theta", kBuses, true);
  trace::TracedArray bdiag(rec, "B_diag", b_matrix.diagonal(), true);

  rec.begin_region();
  // One damped-Jacobi sweep of the solve, traced (enough for the DDDG to
  // see which variables flow where; loop compression keeps the trace tiny).
  rec.begin_loop();
  for (std::size_t i = 0; i < kBuses; ++i) {
    theta[i] = theta[i] + (p[i] - theta[i] * bdiag[i]) / bdiag[i];
    rec.end_loop_iteration();
  }
  rec.end_loop();
  rec.end_region();
  for (std::size_t i = 0; i < kBuses; ++i) (void)theta[i].get();  // used afterwards
}

/// The real numerical region: exact DC power flow.
std::vector<double> power_flow(const sparse::Csr& b_matrix,
                               const std::vector<double>& injections) {
  std::vector<double> theta(kBuses, 0.0);
  apps::conjugate_gradient(b_matrix, injections, theta, 1e-12, 8 * kBuses);
  return theta;
}

}  // namespace

int main() {
  const sparse::Csr b_matrix = build_susceptance();
  Rng rng(2026);

  // --- Step 1+2: trace the annotated region, identify features.
  std::vector<double> base_injections(kBuses);
  for (std::size_t i = 0; i < kBuses; ++i) {
    base_injections[i] = rng.uniform(-1.0, 1.0);
  }
  // Balance injections (sum to zero, as power flow requires).
  const double mean =
      std::accumulate(base_injections.begin(), base_injections.end(), 0.0) / kBuses;
  for (double& v : base_injections) v -= mean;

  trace::TraceRecorder rec;
  traced_power_flow_region(rec, b_matrix, base_injections);
  const trace::FeatureReport features = trace::identify_features(rec);
  std::cout << "Compiler-based extractor on the power-flow region:\n"
            << features.describe(rec) << "\n"
            << "trace: " << rec.total_region_instructions() << " dynamic instructions, "
            << rec.instructions().size() << " stored (loop compression "
            << TextTable::num(rec.compression_ratio(), 1) << "x)\n\n";

  // --- Step 3: training samples by Gaussian perturbation of the inputs.
  const trace::RegionFn region = [&](const std::vector<double>& p) {
    return power_flow(b_matrix, p);
  };
  trace::PerturbationSpec perturb;
  perturb.sigma = 0.2;
  nn::Dataset data = trace::generate_samples(region, base_injections, 400, perturb, rng);
  std::cout << "Generated " << data.size() << " training samples ("
            << data.in_features() << " -> " << data.out_features() << ")\n\n";

  // --- Step 4: 2D NAS under a 5% quality bound.
  nas::SearchTask task;
  task.data = std::move(data);
  task.quality_bound = 0.05;
  task.train.epochs = 150;
  task.train.lr = 3e-3;
  // Quality probe: fresh perturbed injections each call.
  auto probe_rng = std::make_shared<Rng>(99);
  task.evaluate_quality = [&, probe_rng](const nas::PipelineModel& pm) {
    std::vector<double> errors(12);
    for (double& error : errors) {
      std::vector<double> p = base_injections;
      for (double& v : p) v = probe_rng->gaussian(v, 0.2 * std::abs(v) + 0.02);
      const std::vector<double> exact = power_flow(b_matrix, p);
      const std::vector<double> pred = pm.infer(p);
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < exact.size(); ++j) {
        num += (pred[j] - exact[j]) * (pred[j] - exact[j]);
        den += exact[j] * exact[j];
      }
      error = std::sqrt(num / (den + 1e-30));
    }
    return errors;
  };

  nas::NasOptions opts;
  // Table 1 searchType=userModel: power flow is linear, so start the search
  // from a linear topology (the user's domain knowledge, as §6.1 intends).
  opts.search_type = nas::SearchType::UserModel;
  opts.user_model.num_layers = 1;
  opts.user_model.hidden_units = 48;
  opts.user_model.act = nn::Activation::Identity;
  opts.outer_iterations = 2;
  opts.inner_iterations = 4;
  opts.k_min = 4;
  opts.k_max = 16;
  const nas::NasResult result = nas::TwoDNas(opts).search(task);
  std::cout << "2D NAS: " << result.evaluations() << " candidates, best "
            << result.best.spec.describe()
            << (result.best.latent_k > 0
                    ? " on K=" + std::to_string(result.best.latent_k)
                    : " on full input")
            << ", f_e = " << TextTable::num(result.best.quality_error, 4)
            << (result.found_feasible ? " (meets 5% bound)" : " (NOT within bound)")
            << "\n\n";

  // --- Step 5: spot-check the deployed surrogate on fresh operating points.
  TextTable table({"operating point", "max |theta| exact", "rel err"});
  for (int i = 0; i < 5; ++i) {
    std::vector<double> p = base_injections;
    for (double& v : p) v = rng.gaussian(v, 0.2 * std::abs(v) + 0.02);
    const std::vector<double> exact = power_flow(b_matrix, p);
    const std::vector<double> pred = result.best.infer(p);
    double num = 0.0, den = 0.0, max_theta = 0.0;
    for (std::size_t j = 0; j < exact.size(); ++j) {
      num += (pred[j] - exact[j]) * (pred[j] - exact[j]);
      den += exact[j] * exact[j];
      max_theta = std::max(max_theta, std::abs(exact[j]));
    }
    table.add_row({std::to_string(i), TextTable::num(max_theta, 4),
                   TextTable::num(std::sqrt(num / den), 5)});
  }
  std::cout << table.render();
  return 0;
}
