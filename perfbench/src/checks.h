#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks made apart from the program: brute-force recomputations
// the served answers and caches must agree with.

#include <vector>

#include "common/geometry.h"
#include "core/poshgnn.h"
#include "data/dataset.h"
#include "harness.h"

namespace perfbench {

/// The temporal prune mask recomputed from a room's full position
/// history (ticks 0..tick, one frame per published tick): candidates
/// rank by (currently within `radius`, else the last tick they were,
/// else never; then index), the top `k` survive and every other
/// candidate is masked. The target is never masked.
std::vector<bool> BruteForcePruneMask(
    const std::vector<std::vector<after::Vec2>>& history, int tick,
    int target, int k, double radius);

/// The answer recomputed from scratch: the occlusion graph rebuilt with
/// BuildOcclusionGraph on the kept positions, ranked by a mutable f64
/// POSHGNN at session start.
std::vector<bool> ReferenceAnswer(after::Poshgnn& reference,
                                  const after::Dataset& dataset,
                                  const std::vector<after::Vec2>& positions,
                                  int tick, int target,
                                  const std::vector<bool>* blocklist);

/// The served replay's AFTER utility, scored with the benchmark's own
/// formula (utility.h), plus the program's offline evaluator on the same
/// frozen model and session and on the Nearest baseline.
struct ReplayScores {
  double served = 0.0;
  double evaluator = 0.0;
  double nearest = 0.0;
};

/// `served[i][t]` is the answer served to `targets[i]` at step t of the
/// held-out session (the last session of `dataset`).
ReplayScores ScoreReplay(const after::Poshgnn& trained,
                         const after::Dataset& dataset,
                         const std::vector<int>& targets,
                         const std::vector<std::vector<std::vector<bool>>>&
                             served);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
