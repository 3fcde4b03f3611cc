// Benchmark runner: runs one named workload against the program's
// public API and prints, as its last line, one JSON object with the
// output-check verdict, the operations attempted and failed, and the
// end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
//   perfbench --workload paper-room --seed 1 --seconds 20 --trace 0
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workload.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::Clock::now();
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadConfig* config = perfbench::FindWorkload(workload);
  if (config == nullptr || options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper-room|big-room|wire-fleet "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (options.traced) {
    std::error_code ignored;
    std::filesystem::create_directories("perfbench_out", ignored);
    // One file per workload, overwritten by its next traced run.
    options.trace_path = "perfbench_out/trace-" + workload + ".jsonl";
  }
  perfbench::Report report;
  if (!perfbench::RunWorkload(*config, options, &report)) {
    std::fprintf(stderr, "workload %s could not be set up\n",
                 workload.c_str());
    return 1;
  }
  for (const std::string& problem : report.problems)
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  // A traced run's own end-to-end figures, for the tracing overhead.
  if (options.traced)
    std::fprintf(stderr, "traced end-to-end: %s\n",
                 report.Json(false).c_str());
  std::printf("%s\n", report.Json(options.traced).c_str());
  return 0;
}
