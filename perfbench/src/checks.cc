#include "checks.h"

#include <algorithm>
#include <climits>

#include "baselines/nearest_recommender.h"
#include "core/evaluator.h"
#include "graph/occlusion_converter.h"
#include "utility.h"

namespace perfbench {

using after::Vec2;

std::vector<bool> BruteForcePruneMask(
    const std::vector<std::vector<Vec2>>& history, int tick, int target,
    int k, double radius) {
  const int n = static_cast<int>(history[tick].size());
  std::vector<bool> mask(n, false);
  if (k <= 0 || k >= n - 1) return mask;
  const auto near = [&](int t, int c) {
    const double dx = history[t][target].x - history[t][c].x;
    const double dy = history[t][target].y - history[t][c].y;
    return dx * dx + dy * dy <= radius * radius;
  };
  // Score: INT_MAX when co-present now, else the last co-present tick,
  // else INT_MIN.
  std::vector<std::pair<long long, int>> ranked;
  for (int c = 0; c < n; ++c) {
    if (c == target) continue;
    long long score = INT_MIN;
    for (int t = tick; t >= 0; --t) {
      if (near(t, c)) {
        score = t == tick ? INT_MAX : t;
        break;
      }
    }
    ranked.push_back({-score, c});  // ascending = score desc, index asc
  }
  std::sort(ranked.begin(), ranked.end());
  for (size_t i = k; i < ranked.size(); ++i) mask[ranked[i].second] = true;
  return mask;
}

std::vector<bool> ReferenceAnswer(after::Poshgnn& reference,
                                  const after::Dataset& dataset,
                                  const std::vector<Vec2>& positions,
                                  int tick, int target,
                                  const std::vector<bool>* blocklist) {
  const after::XrWorld& world = dataset.sessions.back();
  const after::OcclusionGraph graph =
      after::BuildOcclusionGraph(positions, target, world.body_radius());
  after::StepContext context;
  context.t = tick;
  context.target = target;
  context.positions = &positions;
  context.occlusion = &graph;
  context.interfaces = &world.interfaces();
  context.preference = &dataset.preference;
  context.social_presence = &dataset.social_presence;
  context.beta = reference.config().beta;
  context.body_radius = world.body_radius();
  context.blocklist = blocklist;
  reference.BeginSession(static_cast<int>(positions.size()), target);
  std::vector<bool> answer = reference.Recommend(context);
  answer[target] = false;
  return answer;
}

ReplayScores ScoreReplay(
    const after::Poshgnn& trained, const after::Dataset& dataset,
    const std::vector<int>& targets,
    const std::vector<std::vector<std::vector<bool>>>& served) {
  const after::XrWorld& world = dataset.sessions.back();
  const int n = world.num_users();
  const double beta = trained.config().beta;
  ReplayScores scores;
  for (size_t i = 0; i < targets.size(); ++i) {
    const int v = targets[i];
    const bool viewer_is_mr = world.interface_of(v) == after::Interface::kMR;
    std::vector<std::vector<bool>> visible;
    for (int t = 0; t < world.num_steps(); ++t) {
      // Rendered: the recommended users plus, for an MR viewer, every
      // co-located MR participant.
      std::vector<bool> rendered = served[i][t];
      rendered[v] = false;
      for (int w = 0; viewer_is_mr && w < n; ++w)
        if (w != v && world.interface_of(w) == after::Interface::kMR)
          rendered[w] = true;
      visible.push_back(after::ComputeVisibility(
          world.PositionsAt(t), v, world.body_radius(), rendered));
    }
    std::vector<double> preference(n), presence(n);
    for (int w = 0; w < n; ++w) {
      preference[w] = dataset.preference.At(v, w);
      presence[w] = dataset.social_presence.At(v, w);
    }
    scores.served +=
        AfterUtility(served[i], visible, preference, presence, v, beta);
  }
  scores.served /= static_cast<double>(targets.size());

  after::EvalOptions options;
  options.targets = targets;
  options.beta = beta;
  after::FrozenPoshgnn frozen(trained, after::InferEngine::kFusedF32);
  scores.evaluator =
      after::EvaluateRecommender(frozen, dataset, options).after_utility;
  after::NearestRecommender nearest(trained.config().max_recommendations);
  scores.nearest =
      after::EvaluateRecommender(nearest, dataset, options).after_utility;
  return scores;
}

}  // namespace perfbench
