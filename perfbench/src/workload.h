#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

/// One named workload. Every workload runs the same phases: set-up, an
/// open-loop phase on a seeded schedule with room ticks on the same
/// schedule, a closed-loop saturation phase (ticks continue), and a
/// replay of the held-out paper session for 16 evaluation targets.
struct WorkloadConfig {
  const char* name = "";
  /// Live rooms and their size. 200 users reuse the paper dataset's
  /// held-out session; other sizes get a Timik-like dataset of their
  /// own.
  int rooms = 1;
  int users = 200;
  double move_fraction = 1.0;
  /// Temporal index on the live rooms and the server's candidate cap.
  bool temporal_index = false;
  int max_candidates = 0;
  /// Users per room that query once per cycle; 0 = everyone.
  int hot = 0;
  /// Cycle period: each room ticks once per cycle and each querier
  /// queries once per cycle, spread over it.
  double period_s = 0.3;
  /// Requests kept outstanding in the saturation phase.
  int window = 32;
  /// Server workers (per shard for the fleet).
  int workers = 3;
  /// TCP fleet: shards behind the router front, and its sizing.
  bool fleet = false;
  int shards = 2;
  int router_threads = 4;
  int connections = 4;
};

/// The workload called `name`, or null.
const WorkloadConfig* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Process start, the origin of setup_s.
  Clock::time_point process_start;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

/// Runs the workload and fills the report. False when the system could
/// not be set up at all (no result is printed then).
bool RunWorkload(const WorkloadConfig& config, const RunOptions& options,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
