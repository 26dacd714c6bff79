// Benchmark program: hpcbench --workload <insitu|ranks> --seed <n>
//   --seconds <s> --trace <0|1> [--trace-file <path>]
// Prints one JSON "info" line (host-speed stamps, counts, team size) and, as
// the last line, the result: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits 2 on bad arguments and 1 when the workload throws.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "support.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "hpcbench: " << why
            << "\nusage: hpcbench --workload <insitu|ranks> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-file <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hpcbench::Options opts;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--trace-file") {
        opts.trace_file = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload || !hpcbench::known_workload(opts.workload)) {
    return usage("unknown workload '" + opts.workload + "'");
  }
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  hpcbench::Info info;
  const double stamp_before = hpcbench::host_speed_stamp_ms();
  hpcbench::RunResult result;
  try {
    result = hpcbench::run_workload(opts, info);
  } catch (const std::exception& e) {
    std::cerr << "hpcbench: " << opts.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  const double stamp_after = hpcbench::host_speed_stamp_ms();

  std::cout << "{\"info\": {\"workload\": " << hpcbench::json_quote(opts.workload)
            << ", \"seed\": " << opts.seed << ", \"trace\": " << (opts.trace ? 1 : 0)
            << ", \"host_stamp_ms_before\": " << stamp_before
            << ", \"host_stamp_ms_after\": " << stamp_after;
  for (const auto& [key, value] : info) std::cout << ", " << hpcbench::json_quote(key) << ": " << value;
  std::cout << "}}\n" << hpcbench::result_json(result) << std::endl;
  return 0;
}
