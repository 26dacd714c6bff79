// Fluid simulation example (the paper's §2 motivation): the NS_equation
// projection step — whose core is the PCG pressure solve of Algorithm 1 —
// is replaced with an Auto-HPCnet surrogate. The example then runs a short
// simulation loop where each step is served through the orchestrator
// (Listing 1's client API) with QoI checking and restart-on-miss fallback,
// and reports per-step quality and the modeled end-to-end speedup.

#include <iostream>

#include "apps/fluidanimate_app.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "runtime/orchestrator.hpp"

int main(int argc, char** argv) {
  using namespace ahn;

  core::Config config = core::Config::from_args(argc, argv);
  config.outer_iterations = 2;
  config.inner_iterations = 3;

  apps::FluidanimateApp app;
  std::cout << "Building a surrogate for " << app.replaced_function()
            << " (grid " << app.input_dim() / 2 << " cells, QoI: " << app.qoi_name()
            << ") ...\n";
  const core::AutoHPCnet framework(config);
  const core::PipelineResult result = framework.run(app);
  std::cout << "  searched model: " << result.model.spec.describe()
            << (result.model.latent_k > 0
                    ? " on K=" + std::to_string(result.model.latent_k) + " features"
                    : " on full input")
            << ", search f_e = " << TextTable::num(result.model.quality_error, 4)
            << "\n\n";

  // Deploy through the orchestrator exactly as Listing 1 does: the "HPC
  // application" below only talks to the Client.
  runtime::Orchestrator orchestrator;
  auto servable = std::make_shared<runtime::ServableModel>();
  if (result.model.encoder != nullptr) {
    auto encoder = result.model.encoder;
    servable->encode = [encoder](const Tensor& x) { return encoder->encode(x); };
    servable->encode_ops = encoder->encode_cost(1);
  }
  servable->infer_ops = result.model.surrogate.net.inference_cost(1);
  servable->surrogate = result.model.surrogate;
  orchestrator.set_model("AI-CFD-net", servable);
  runtime::Client client(orchestrator);
  // Modeled online seconds served so far in one §7.3 phase ("fetch",
  // "encode", "load", "run" or "total"), read from the orchestrator's stats.
  const auto online_seconds_in = [&orchestrator](const std::string& phase) {
    return orchestrator.stats()
        .metrics()
        .snapshot()
        .histograms.at("serving.latency." + phase)
        .sum;
  };

  // Simulation loop over the held-out problems ("timesteps").
  TextTable table({"step", "QoI err", "accepted", "exact us", "surrogate us"});
  double exact_total = 0.0, surrogate_total = 0.0;
  std::size_t accepted = 0;
  const std::size_t steps = std::min<std::size_t>(10, result.eval_problems.size());
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t problem = result.eval_problems[s];

    // Exact path (reference + fallback).
    const apps::RegionRun exact = app.run_region(problem);

    // Surrogate path via the client (Listing 1: put / run / unpack).
    const std::vector<double> feat = app.input_features(problem);
    Tensor in({1, feat.size()});
    std::copy(feat.begin(), feat.end(), in.row(0).begin());
    client.put_tensor("in_key", std::move(in));
    const double before = online_seconds_in("total");
    if (!client.run_model("AI-CFD-net", "in_key", "out_key").is_ok()) {
      std::cerr << "surrogate serving failed\n";
      return 1;
    }
    const double online_seconds = online_seconds_in("total") - before;
    const Tensor out = client.unpack_tensor("out_key");
    const std::vector<double> pred(out.row(0).begin(), out.row(0).end());

    const double err = app.qoi_error(problem, exact.outputs, pred);
    const bool ok = err <= config.mu;
    if (ok) ++accepted;
    exact_total += exact.region_seconds;
    surrogate_total += online_seconds + (ok ? 0.0 : exact.region_seconds);
    table.add_row({std::to_string(s), TextTable::num(err, 4), ok ? "yes" : "RESTART",
                   TextTable::num(1e6 * exact.region_seconds, 1),
                   TextTable::num(1e6 * online_seconds, 1)});
  }

  std::cout << table.render() << "\n";
  std::cout << "accepted " << accepted << "/" << steps
            << " steps; modeled speedup over the simulation: "
            << TextTable::num(exact_total / surrogate_total, 2) << "x\n";
  const double online_total = online_seconds_in("total");
  const auto percent = [&](const std::string& phase) {
    return TextTable::num(
        online_total > 0.0 ? 100 * online_seconds_in(phase) / online_total : 0.0, 1);
  };
  std::cout << "online phase split: fetch " << percent("fetch") << "% / encode "
            << percent("encode") << "% / load " << percent("load") << "% / run "
            << percent("run") << "%\n";
  return 0;
}
