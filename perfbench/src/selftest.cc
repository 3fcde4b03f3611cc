// Self-tests of the benchmark's own parts: percentile arithmetic, the
// open-loop arrival schedule and the independent AFTER utility formula.
// Exit code 0 iff every check passes.
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <vector>

#include "stats.h"
#include "utility.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestQuantiles() {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Expect(Near(perfbench::QuantileSorted(sorted, 0.0), 1.0), "q0 is the min");
  Expect(Near(perfbench::QuantileSorted(sorted, 1.0), 10.0), "q1 is the max");
  Expect(Near(perfbench::QuantileSorted(sorted, 0.5), 5.5),
         "median of 1..10 is 5.5");
  // rank 0.99 * 9 = 8.91 -> 9 + 0.91 * (10 - 9)
  Expect(Near(perfbench::QuantileSorted(sorted, 0.99), 9.91), "p99 of 1..10");
  Expect(Near(perfbench::Quantile({5, 1, 3}, 0.5), 3.0),
         "Quantile sorts its input");
  Expect(Near(perfbench::Quantile({7}, 0.99), 7.0), "single sample");
  Expect(perfbench::Quantile({}, 0.5) == 0.0, "empty input reads 0");
  Expect(perfbench::CountAbove(sorted, 9.91) == 1, "one sample beyond p99");
}

void TestSchedule() {
  const std::vector<std::vector<int>> queriers = {{0, 1, 2}, {5, 7}};
  const double period = 0.5;
  const int cycles = 4;
  const auto a = perfbench::BuildSchedule(11, queriers, period, cycles);
  const auto b = perfbench::BuildSchedule(11, queriers, period, cycles);
  const auto c = perfbench::BuildSchedule(12, queriers, period, cycles);
  Expect(a.size() == 5u * cycles, "every querier once per cycle");
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i)
    same = a[i].time_s == b[i].time_s && a[i].user == b[i].user;
  Expect(same, "same seed, same schedule");
  bool differs = false;
  for (size_t i = 0; i < a.size() && i < c.size(); ++i)
    differs = differs || a[i].time_s != c[i].time_s;
  Expect(differs, "another seed, another schedule");
  std::map<std::tuple<int, int, int>, int> seen;
  bool sorted = true, inside = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].time_s < a[i - 1].time_s) sorted = false;
    const double start =
        perfbench::CycleStart(a[i].room, 2, period, a[i].cycle);
    if (a[i].time_s < start || a[i].time_s >= start + period) inside = false;
    ++seen[{a[i].room, a[i].user, a[i].cycle}];
  }
  Expect(sorted, "schedule is sorted by time");
  Expect(inside, "each arrival falls inside its room's cycle");
  bool once = seen.size() == a.size();
  for (const auto& [key, count] : seen) once = once && count == 1;
  Expect(once, "no (room, user, cycle) repeats");
  Expect(Near(perfbench::CycleStart(1, 2, period, 3), 0.25 + 1.5),
         "room 1 is offset by half a period");
}

void TestUtility() {
  // Target 0 among users {0, 1, 2}; beta = 0.25.
  // p(0, .) = {0, 0.8, 0.4}, s(0, .) = {0, 0.6, 0.2}.
  //  t=0: recommend {1, 2}, visible {1}     -> 0.75*0.8          = 0.6
  //  t=1: recommend {1, 2}, visible {1, 2}  -> 0.75*0.8 + 0.25*0.6
  //                                          + 0.75*0.4 (2 unseen at t=0)
  //                                          = 0.6 + 0.15 + 0.3 = 1.05
  //  t=2: recommend {2},    visible {0, 2}  -> 0.75*0.4 + 0.25*0.2 = 0.35
  //       (the target's own slot never counts)
  // total = 2.0
  const std::vector<std::vector<bool>> recommended = {
      {false, true, true}, {false, true, true}, {true, false, true}};
  const std::vector<std::vector<bool>> visible = {
      {false, true, false}, {false, true, true}, {true, false, true}};
  const double u = perfbench::AfterUtility(recommended, visible,
                                           {0.0, 0.8, 0.4}, {0.0, 0.6, 0.2},
                                           /*target=*/0, /*beta=*/0.25);
  Expect(std::fabs(u - 2.0) < 1e-12, "hand-computed AFTER utility is 2.0");
  const double none = perfbench::AfterUtility(
      {{false, false, false}}, {{true, true, true}}, {0.0, 0.8, 0.4},
      {0.0, 0.6, 0.2}, 0, 0.25);
  Expect(none == 0.0, "nothing recommended earns nothing");
}

}  // namespace

int main() {
  TestQuantiles();
  TestSchedule();
  TestUtility();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
