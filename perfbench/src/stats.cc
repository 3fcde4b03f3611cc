#include "stats.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/rng.h"

namespace perfbench {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  const double rank = std::clamp(q, 0.0, 1.0) * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - lo) * (sorted[hi] - sorted[lo]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

int CountAbove(const std::vector<double>& values, double threshold) {
  int count = 0;
  for (double v : values) count += v > threshold ? 1 : 0;
  return count;
}

double CycleStart(int room, int rooms, double period_s, int cycle) {
  return room * period_s / rooms + cycle * period_s;
}

std::vector<Arrival> BuildSchedule(
    uint64_t seed, const std::vector<std::vector<int>>& queriers,
    double period_s, int cycles) {
  after::Rng rng(seed);
  const int rooms = static_cast<int>(queriers.size());
  std::vector<Arrival> out;
  for (int c = 0; c < cycles; ++c) {
    for (int r = 0; r < rooms; ++r) {
      const double start = CycleStart(r, rooms, period_s, c);
      for (int user : queriers[r])
        out.push_back({start + rng.Uniform() * period_s, r, user, c});
    }
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return std::tie(a.time_s, a.room, a.user) <
           std::tie(b.time_s, b.room, b.user);
  });
  return out;
}

}  // namespace perfbench
