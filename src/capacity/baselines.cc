#include "capacity/baselines.h"

#include <optional>

namespace decaylib::capacity {

std::vector<int> GreedyHalfAffectance(const sinr::KernelCache& kernel,
                                      std::span<const int> candidates) {
  return sinr::HalfBudgetAdmission(kernel, sinr::DecayOrder(kernel, candidates),
                                   std::nullopt)
      .selected;
}

std::vector<int> RandomFeasible(const sinr::KernelCache& kernel,
                                std::span<const int> candidates,
                                geom::Rng& rng) {
  std::vector<int> order(candidates.begin(), candidates.end());
  rng.Shuffle(order);
  return sinr::AdmitWhileFeasible(kernel, order);
}

}  // namespace decaylib::capacity
