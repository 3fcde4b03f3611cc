#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer probes of a traced run: retained snapshots of the workload
// replayed serially through each layer's public functions, and the
// network layers timed with NetClient against a shard and a router
// front.

#include <string>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "core/poshgnn.h"
#include "data/dataset.h"
#include "harness.h"
#include "serve/metrics.h"

namespace perfbench {

struct LayerInputs {
  /// One room's published frames, tick 0 first.
  const std::vector<std::vector<after::Vec2>>* history = nullptr;
  /// The dataset the room was created from (interfaces, utilities).
  const after::Dataset* dataset = nullptr;
  const after::Poshgnn* trained = nullptr;
  /// Targets to probe (a sample of the room's queriers).
  std::vector<int> targets;
  /// Candidate cap for the prune-mask probe.
  int max_candidates = 64;
  double co_presence_radius = 2.0;
  double max_speed = 1.2;
  uint64_t seed = 1;
};

/// Geometry, inference, snapshot, simulator and wire-codec probes.
void ProbeLayers(const LayerInputs& inputs, Tracer* tracer, Report* report);

struct NetEndpoints {
  std::string shard_host;
  int shard_port = 0;
  const after::serve::NetFrontMetrics* shard_metrics = nullptr;
  std::string router_host;
  int router_port = 0;
  /// (room id, user) pairs the shard hosts.
  std::vector<std::pair<int, int>> requests;
};

/// Ping and call round trips direct to a shard, the router hop, and
/// wire bytes per request.
void ProbeNet(const NetEndpoints& endpoints, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
