// vdce_perfbench: one workload, one run, one JSON line.
//
//   vdce_perfbench --workload apps_daemon|bulk_tcp|stream_spectrum
//                  --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics of an unwrapped run;
// --trace 1 runs the same work unwrapped and then wrapped, and reports
// the per-layer metrics.  The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload apps_daemon|bulk_tcp|stream_spectrum\n"
               "          --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n",
               argv0);
  std::exit(2);
}

/// The result line; every metric of `defs` must be present, and no
/// other.
template <std::size_t N>
bool print_result(const perfbench::RunOutcome& out,
                  const perfbench::MetricDef (&defs)[N]) {
  std::set<std::string> known;
  for (const auto& def : defs) known.insert(def.name);
  for (const auto& [name, value] : out.metrics) {
    if (known.count(name) == 0) {
      std::cerr << "internal error: unlisted metric " << name << "\n";
      return false;
    }
  }
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    const auto it = out.metrics.find(def.name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    line += first ? "" : ", ";
    line += "\"" + std::string(def.name) + "\": {\"value\": " + number +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--spans-out") {
      options.spans_path = value;
    } else {
      usage(argv[0]);
    }
  }
  if (trace != 0 && trace != 1) usage(argv[0]);
  if (!(options.seconds > 0.0)) usage(argv[0]);
  options.trace = trace == 1;

  perfbench::RunOutcome out;
  try {
    if (options.workload == "apps_daemon") {
      out = perfbench::run_app_workload(perfbench::AppWorkload::kAppsDaemon,
                                        options);
    } else if (options.workload == "bulk_tcp") {
      out = perfbench::run_app_workload(perfbench::AppWorkload::kBulkTcp,
                                        options);
    } else if (options.workload == "stream_spectrum") {
      out = perfbench::run_stream_workload(options);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::cerr << "vdce_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!options.trace) {
    for (const auto& def : perfbench::kEndToEnd) {
      if (out.metrics.count(def.name) == 0) {
        std::cerr << "internal error: workload did not report " << def.name
                  << "\n";
        return 1;
      }
    }
  }
  const bool printed = options.trace
                           ? print_result(out, perfbench::kPerLayer)
                           : print_result(out, perfbench::kEndToEnd);
  if (!printed) return 1;
  return out.correct ? 0 : 1;
}
