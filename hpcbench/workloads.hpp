#pragma once
// The benchmark's workloads (README.md says why each exists):
//   insitu — Listing 1 inside an application time loop (sync serving, K=5);
//   ranks  — three rank threads on a two-shard serving cluster (batched).
// Each sets up (building its surrogate with the full offline pipeline),
// runs its timed phase for the requested seconds, checks every output it
// sees, and returns its end-to-end metrics (untraced) or its per-layer
// metrics, offline layers included (traced).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support.hpp"

namespace hpcbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< Chrome trace output of a traced run; empty = none
};

/// Facts about the run that are not metrics (counts behind each median,
/// OpenMP team size, set-up samples, first failed check), as name -> JSON
/// value pairs printed beside the result.
using Info = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload. Throws on set-up errors; check failures and failed
/// operations are reported in the result.
[[nodiscard]] RunResult run_workload(const Options& opts, Info& info);

}  // namespace hpcbench
