#include "utility.h"

#include <cstddef>

namespace perfbench {

double AfterUtility(const std::vector<std::vector<bool>>& recommended,
                    const std::vector<std::vector<bool>>& visible,
                    const std::vector<double>& preference,
                    const std::vector<double>& presence, int target,
                    double beta) {
  double total = 0.0;
  const int n = static_cast<int>(preference.size());
  for (std::size_t t = 0; t < recommended.size(); ++t) {
    for (int w = 0; w < n; ++w) {
      if (w == target || !recommended[t][w] || !visible[t][w]) continue;
      total += (1.0 - beta) * preference[w];
      if (t > 0 && recommended[t - 1][w] && visible[t - 1][w])
        total += beta * presence[w];
    }
  }
  return total;
}

}  // namespace perfbench
