#include "layers.h"

#include <cstdio>

#include "common/rng.h"
#include "graph/occlusion_converter.h"
#include "graph/temporal_index.h"
#include "infer/dispatch.h"
#include "infer/engine.h"
#include "infer/kernels.h"
#include "infer/tensor.h"
#include "serve/net_client.h"
#include "serve/room.h"
#include "serve/wire.h"
#include "sim/crowd_simulator.h"
#include "stats.h"

namespace perfbench {
namespace {

using after::Vec2;

/// Collects per-call durations of one probe and records each as a span.
class Probe {
 public:
  Probe(const char* name, Tracer* tracer, Clock::time_point epoch)
      : name_(name), tracer_(tracer), epoch_(epoch) {}

  template <typename F>
  void Time(F&& call) {
    const double start = Since(epoch_);
    call();
    const double end = Since(epoch_);
    samples_.push_back(end - start);
    tracer_->Add(name_, start, end);
  }

  double MedianS() const { return Quantile(samples_, 0.5); }

 private:
  const char* name_;
  Tracer* tracer_;
  Clock::time_point epoch_;
  std::vector<double> samples_;
};

std::vector<int> MovedBetween(const std::vector<Vec2>& before,
                              const std::vector<Vec2>& after_frame) {
  std::vector<int> moved;
  for (size_t u = 0; u < before.size(); ++u)
    if (before[u].x != after_frame[u].x || before[u].y != after_frame[u].y)
      moved.push_back(static_cast<int>(u));
  return moved;
}

/// 64-byte-aligned buffer filled with small seeded values.
after::infer::TensorF32 RandomTensor(int rows, int cols, after::Rng* rng) {
  after::infer::TensorF32 t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i)
    t.data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return t;
}

}  // namespace

void ProbeLayers(const LayerInputs& in, Tracer* tracer, Report* report) {
  const Clock::time_point epoch = Clock::now();
  const auto& history = *in.history;
  const after::Dataset& dataset = *in.dataset;
  const after::XrWorld& world = dataset.sessions.back();
  const double radius = world.body_radius();
  const double beta = in.trained->config().beta;
  const int n = static_cast<int>(history.back().size());
  std::vector<bool> is_physical(n);
  for (int u = 0; u < n; ++u)
    is_physical[u] = world.interface_of(u) == after::Interface::kMR;

  Probe arcs_probe("layer.graph.view_arcs", tracer, epoch);
  Probe build_probe("layer.graph.occlusion_build", tracer, epoch);
  Probe blocked_probe("layer.graph.blocked_mask", tracer, epoch);
  Probe update_probe("layer.graph.occlusion_update", tracer, epoch);
  Probe temporal_probe("layer.graph.temporal_update", tracer, epoch);
  Probe prune_probe("layer.graph.prune_mask", tracer, epoch);
  Probe snapshot_probe("layer.serve.snapshot_delta", tracer, epoch);
  Probe recommend_probe("layer.infer.recommend", tracer, epoch);
  double edges = 0.0;
  int graphs = 0;

  const after::PoshgnnConfig& config = in.trained->config();
  after::infer::EngineConfig engine_config;
  engine_config.hidden_dim = config.hidden_dim;
  engine_config.beta = config.beta;
  engine_config.threshold = config.threshold;
  engine_config.max_recommendations = config.max_recommendations;
  engine_config.use_mia = config.use_mia;
  engine_config.use_lwp = config.use_lwp;
  std::vector<after::Matrix> parameters;
  for (const auto& p : in.trained->Parameters()) parameters.push_back(p.value());
  const after::infer::PoshgnnInferEngine engine(engine_config, parameters);

  // The last few published frame pairs of the room.
  const int last = static_cast<int>(history.size()) - 1;
  const int first = std::max(1, last - 7);
  for (int k = first; k <= last; ++k) {
    const std::vector<Vec2>& before = history[k - 1];
    const std::vector<Vec2>& now = history[k];
    const std::vector<int> moved_all = MovedBetween(before, now);

    after::TemporalIndex::Options index_options;
    index_options.co_presence_radius = in.co_presence_radius;
    after::TemporalIndex index(index_options);
    index.Rebuild(before, k - 1);
    temporal_probe.Time([&] { index.Update(now, moved_all, k); });
    const auto view = index.PublishView();

    after::serve::RoomSnapshot previous(
        k - 1, before, &world.interfaces(), &dataset.preference,
        &dataset.social_presence, beta, radius);
    for (int t : in.targets) (void)previous.OcclusionFor(t);
    std::unique_ptr<after::serve::RoomSnapshot> delta;
    snapshot_probe.Time([&] {
      delta = std::make_unique<after::serve::RoomSnapshot>(
          k, now, previous, moved_all, nullptr);
    });

    for (int t : in.targets) {
      std::vector<after::ViewArc> arcs;
      arcs_probe.Time(
          [&] { arcs = after::ComputeViewArcs(now, t, radius); });
      after::OcclusionGraph graph;
      build_probe.Time(
          [&] { graph = after::BuildOcclusionGraphFromArcs(arcs); });
      edges += graph.num_edges();
      ++graphs;
      blocked_probe.Time([&] {
        (void)after::PhysicallyBlockedUsers(now, t, radius, is_physical);
      });

      // Delta update of the target's graph from the previous frame. The
      // target itself must not be in the moved set.
      std::vector<int> moved;
      std::vector<bool> is_moved(n, false);
      for (int m : moved_all)
        if (m != t) {
          moved.push_back(m);
          is_moved[m] = true;
        }
      std::vector<Vec2> shifted = now;
      shifted[t] = before[t];
      std::vector<after::ViewArc> patched =
          after::ComputeViewArcs(before, t, radius);
      const after::OcclusionGraph previous_graph =
          after::BuildOcclusionGraphFromArcs(patched);
      after::UpdateViewArcs(shifted, t, radius, moved, &patched);
      after::OcclusionGraph updated;
      update_probe.Time([&] {
        updated = after::UpdateOcclusionGraph(previous_graph, patched, moved,
                                              is_moved);
      });
      if (updated != after::BuildOcclusionGraph(shifted, t, radius))
        report->Fail("UpdateOcclusionGraph differs from a scratch rebuild");

      std::vector<bool> mask;
      prune_probe.Time(
          [&] { view->FillPruneMask(t, in.max_candidates, &mask); });

      const after::StepContext context = delta->ContextFor(t);
      recommend_probe.Time([&] { (void)engine.Recommend(context); });
    }
  }

  // Fused kernels at request shapes: one PDR layer-1 GCN call (n x 4 ->
  // n x hidden) and one neighbour aggregation pass over the last probed
  // target's occlusion graph (hidden columns).
  after::Rng rng(in.seed);
  const int hidden = config.hidden_dim;
  const after::infer::KernelOps& ops =
      after::infer::OpsFor(after::infer::ActiveSimdLevel());
  auto x = RandomTensor(n, 4, &rng), ax = RandomTensor(n, 4, &rng);
  auto w_self = RandomTensor(4, hidden, &rng);
  auto w_neigh = RandomTensor(4, hidden, &rng);
  auto bias = RandomTensor(1, hidden, &rng);
  auto y = RandomTensor(n, hidden, &rng);
  auto rows = RandomTensor(n, hidden, &rng);
  auto sums = RandomTensor(n, hidden, &rng);
  const after::OcclusionGraph graph = after::BuildOcclusionGraph(
      history.back(), in.targets.back(), radius);
  Probe gcn_probe("layer.infer.gcn_layer", tracer, epoch);
  Probe sum_probe("layer.infer.sum_rows", tracer, epoch);
  double rows_aggregated = 0.0;
  for (int u = 0; u < n; ++u) rows_aggregated += graph.Degree(u);
  for (int rep = 0; rep < 200; ++rep) {
    gcn_probe.Time([&] {
      ops.gcn_layer(n, 4, hidden, x.data(), ax.data(), w_self.data(),
                    w_neigh.data(), bias.data(), nullptr, nullptr,
                    after::infer::Act::kRelu, y.data());
    });
    sum_probe.Time([&] {
      for (int u = 0; u < n; ++u) {
        const std::vector<int>& nb = graph.Neighbors(u);
        ops.sum_rows(rows.data(), hidden, nb.data(),
                     static_cast<int>(nb.size()),
                     sums.data() + static_cast<size_t>(u) * hidden);
      }
    });
  }

  // One crowd step at room size from the last frame, seeded waypoints.
  Probe step_probe("layer.sim.step", tracer, epoch);
  after::CrowdSimulator sim(/*time_step=*/0.5);
  after::CrowdSimulator::AgentParams params;
  params.radius = radius;
  params.max_speed = in.max_speed;
  for (const Vec2& p : history.back()) {
    const int agent = sim.AddAgent(p, params);
    sim.SetGoal(agent, Vec2{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  for (int rep = 0; rep < 6; ++rep) step_probe.Time([&] { sim.Step(); });

  // Wire codec: one request frame encoded; one response frame of room
  // size extracted and decoded.
  Probe encode_probe("layer.wire.encode", tracer, epoch);
  Probe decode_probe("layer.wire.decode", tracer, epoch);
  after::serve::FriendRequest request;
  request.user = in.targets.front();
  after::serve::FriendResponse response;
  response.recommended.assign(n, false);
  for (int i = 0; i < 10; ++i) response.recommended[(i * 7) % n] = true;
  response.tick = 1;
  std::string encoded;
  after::serve::wire::AppendResponseFrame(7, response, &encoded);
  std::string out;
  for (int rep = 0; rep < 2000; ++rep) {
    out.clear();
    encode_probe.Time([&] {
      after::serve::wire::AppendRequestFrame(rep + 1, request, &out);
    });
    decode_probe.Time([&] {
      after::serve::wire::Frame frame;
      size_t consumed = 0;
      if (!after::serve::wire::ExtractFrame(encoded, &frame, &consumed).ok() ||
          !after::serve::wire::DecodeResponse(frame.payload).ok())
        report->Fail("wire response frame failed to decode");
    });
  }

  report->Add(true, "serve.snapshot_delta_ms", snapshot_probe.MedianS() * 1e3,
              "ms");
  report->Add(true, "sim.step_ms", step_probe.MedianS() * 1e3, "ms");
  report->Add(true, "graph.view_arcs_us", arcs_probe.MedianS() * 1e6, "us");
  report->Add(true, "graph.occlusion_build_us", build_probe.MedianS() * 1e6,
              "us");
  report->Add(true, "graph.occlusion_edges", edges / graphs, "count");
  report->Add(true, "graph.blocked_mask_us", blocked_probe.MedianS() * 1e6,
              "us");
  report->Add(true, "graph.occlusion_update_us",
              update_probe.MedianS() * 1e6, "us");
  report->Add(true, "graph.temporal_update_ms",
              temporal_probe.MedianS() * 1e3, "ms");
  report->Add(true, "graph.prune_mask_us", prune_probe.MedianS() * 1e6, "us");
  report->Add(true, "infer.recommend_us", recommend_probe.MedianS() * 1e6,
              "us");
  report->Add(true, "infer.gcn_layer_us", gcn_probe.MedianS() * 1e6, "us");
  report->Add(true, "infer.sum_rows_us", sum_probe.MedianS() * 1e6, "us");
  report->Add(true, "infer.rows_aggregated", rows_aggregated, "count");
  report->Add(true, "wire.encode_ns", encode_probe.MedianS() * 1e9, "ns");
  report->Add(true, "wire.decode_ns", decode_probe.MedianS() * 1e9, "ns");
}

void ProbeNet(const NetEndpoints& endpoints, Tracer* tracer,
              Report* report) {
  const Clock::time_point epoch = Clock::now();
  auto shard = after::serve::NetClient::Connect(endpoints.shard_host,
                                                endpoints.shard_port);
  auto router = after::serve::NetClient::Connect(endpoints.router_host,
                                                 endpoints.router_port);
  if (!shard.ok() || !router.ok() || endpoints.requests.empty()) {
    report->Fail("net probe could not connect");
    return;
  }
  const auto call = [&](after::serve::NetClient& client, int i) {
    after::serve::FriendRequest request;
    request.room = endpoints.requests[i % endpoints.requests.size()].first;
    request.user = endpoints.requests[i % endpoints.requests.size()].second;
    request.deadline_ms = -1.0;
    auto answer = client.Call(request);
    if (!answer.ok() || !answer.value().status.ok())
      report->Fail("net probe call failed");
  };
  Probe ping_probe("layer.net.ping", tracer, epoch);
  Probe shard_probe("layer.net.shard_call", tracer, epoch);
  Probe router_probe("layer.router.call", tracer, epoch);
  for (int i = 0; i < 20; ++i) {  // warm both paths
    call(*shard.value(), i);
    call(*router.value(), i);
  }
  for (int i = 0; i < 300; ++i) {
    ping_probe.Time([&] {
      if (!shard.value()->Ping().ok()) report->Fail("net probe ping failed");
    });
  }
  const auto& m = *endpoints.shard_metrics;
  const int64_t frames0 = m.frames_in.load();
  const int64_t bytes0 = m.bytes_in.load() + m.bytes_out.load();
  for (int i = 0; i < 300; ++i)
    shard_probe.Time([&] { call(*shard.value(), i); });
  const int64_t frames = m.frames_in.load() - frames0;
  const int64_t bytes = m.bytes_in.load() + m.bytes_out.load() - bytes0;
  for (int i = 0; i < 300; ++i)
    router_probe.Time([&] { call(*router.value(), i); });

  report->Add(true, "net.ping_rtt_us", ping_probe.MedianS() * 1e6, "us");
  report->Add(true, "net.shard_rtt_us", shard_probe.MedianS() * 1e6, "us");
  report->Add(true, "router.hop_us",
              (router_probe.MedianS() - shard_probe.MedianS()) * 1e6, "us");
  report->Add(true, "net.bytes_per_request",
              frames > 0 ? static_cast<double>(bytes) / frames : 0.0,
              "bytes");
}

}  // namespace perfbench
