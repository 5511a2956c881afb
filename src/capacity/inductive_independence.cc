#include "capacity/inductive_independence.h"

#include <algorithm>
#include <numeric>

namespace decaylib::capacity {

InductiveIndependence EstimateInductiveIndependence(
    const sinr::KernelCache& kernel) {
  InductiveIndependence result;
  const std::vector<int> order = kernel.OrderByDecay();
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const int v = order[pos];
    const std::vector<int> longer(order.begin() + static_cast<long>(pos) + 1,
                                  order.end());
    if (longer.empty()) continue;

    // Upper bound: ignore feasibility altogether (clamped affectances).
    double upper = 0.0;
    for (int w : longer) {
      upper += kernel.Affectance(v, w) + kernel.Affectance(w, v);
    }
    result.upper = std::max(result.upper, upper);

    // Greedy witness: add longer links by decreasing exchanged affectance
    // while the witness set stays feasible.
    std::vector<int> by_weight = longer;
    std::stable_sort(by_weight.begin(), by_weight.end(), [&](int a, int b) {
      const double wa = kernel.Affectance(v, a) + kernel.Affectance(a, v);
      const double wb = kernel.Affectance(v, b) + kernel.Affectance(b, v);
      return wa > wb;
    });
    std::vector<int> witness;
    double exchanged = 0.0;
    for (int w : by_weight) {
      witness.push_back(w);
      if (kernel.IsFeasible(witness)) {
        exchanged += kernel.Affectance(v, w) + kernel.Affectance(w, v);
      } else {
        witness.pop_back();
      }
    }
    if (exchanged > result.greedy_lower) {
      result.greedy_lower = exchanged;
      result.arg_link = v;
    }
  }
  return result;
}

}  // namespace decaylib::capacity
