#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `sorted` (ascending), by linear
/// interpolation between the two closest ranks (rank q * (n - 1)), the
/// rule numpy calls "linear". Requires a non-empty input.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Sorts a copy and returns its quantile; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Number of values strictly above `threshold`.
int CountAbove(const std::vector<double>& values, double threshold);

/// One scheduled request of an open-loop phase.
struct Arrival {
  double time_s = 0.0;  // due time, seconds after the phase starts
  int room = 0;         // index into the room list, not a room id
  int user = 0;
  int cycle = 0;
};

/// Stratified open-loop schedule. Room r's cycle c covers
/// [r * period / rooms + c * period, ... + period); within it every user
/// listed in `queriers[r]` queries exactly once, at a seeded uniform
/// offset. The result is sorted by time (ties by room, then user), and
/// the same seed always yields the same schedule.
std::vector<Arrival> BuildSchedule(uint64_t seed,
                                   const std::vector<std::vector<int>>& queriers,
                                   double period_s, int cycles);

/// Start of room r's cycle c in the schedule above; room r's tick c is
/// due at this time.
double CycleStart(int room, int rooms, double period_s, int cycle);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
