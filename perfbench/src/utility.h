#ifndef PERFBENCH_UTILITY_H_
#define PERFBENCH_UTILITY_H_

#include <vector>

namespace perfbench {

/// The paper's AFTER utility for one target over one session
/// (Definitions 2 and 3), written from the formula rather than from the
/// program's evaluator:
///
///   sum_t sum_w 1[v => w at t] * ((1 - beta) * p(v, w)
///                                 + beta * 1[v => w at t-1] * s(v, w))
///
/// where 1[v => w at t] means w was recommended to v at step t and is
/// visible to v then. `recommended[t]` and `visible[t]` are the step-t
/// indicator vectors; `preference` and `presence` are the target's rows
/// p(v, .) and s(v, .). The target's own slot never counts.
double AfterUtility(const std::vector<std::vector<bool>>& recommended,
                    const std::vector<std::vector<bool>>& visible,
                    const std::vector<double>& preference,
                    const std::vector<double>& presence, int target,
                    double beta);

}  // namespace perfbench

#endif  // PERFBENCH_UTILITY_H_
