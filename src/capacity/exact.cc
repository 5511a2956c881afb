#include "capacity/exact.h"

#include <algorithm>

#include "sinr/kernel.h"
#include "sinr/power.h"
#include "sinr/power_control.h"

namespace decaylib::capacity {

namespace {

// Branch and bound for maximum feasible subset with a monotone (hereditary)
// feasibility oracle supplied as a callable on the current set.
template <typename FeasibleFn>
class Solver {
 public:
  Solver(std::vector<int> universe, FeasibleFn feasible)
      : universe_(std::move(universe)), feasible_(std::move(feasible)) {}

  std::vector<int> Solve() {
    std::vector<int> current;
    Recurse(0, current);
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  void Recurse(std::size_t index, std::vector<int>& current) {
    if (current.size() + (universe_.size() - index) <= best_.size()) return;
    if (index == universe_.size()) {
      if (current.size() > best_.size()) best_ = current;
      return;
    }
    // Include universe_[index] if the set stays feasible.
    current.push_back(universe_[index]);
    if (feasible_(current)) Recurse(index + 1, current);
    current.pop_back();
    // Exclude.
    Recurse(index + 1, current);
  }

  std::vector<int> universe_;
  FeasibleFn feasible_;
  std::vector<int> best_;
};

}  // namespace

std::vector<int> ExactCapacity(const sinr::LinkSystem& system,
                               const sinr::PowerAssignment& power,
                               std::span<const int> candidates) {
  // The branch and bound calls the feasibility oracle on every explored
  // node; the cached kernel turns each affectance term into a lookup.
  const sinr::KernelCache kernel(system, power);
  // Links that cannot even overcome noise alone can never appear.
  std::vector<int> universe;
  for (int v : candidates) {
    if (kernel.CanOvercomeNoise(v)) universe.push_back(v);
  }
  auto feasible = [&](const std::vector<int>& S) {
    return kernel.IsFeasible(S);
  };
  return Solver(std::move(universe), feasible).Solve();
}

std::vector<int> ExactCapacityUniform(const sinr::LinkSystem& system) {
  const std::vector<int> all = sinr::AllLinks(system);
  return ExactCapacity(system, sinr::UniformPower(system), all);
}

std::vector<int> ExactCapacityPowerControl(const sinr::LinkSystem& system,
                                           std::span<const int> candidates) {
  std::vector<int> universe(candidates.begin(), candidates.end());
  // Every oracle below is power-invariant; the kernel only caches decays.
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  // Precompute pairwise obstructions: pairs that no power assignment can
  // serve together.  They turn most infeasible branches into O(1) rejections
  // before the iterative oracle runs.
  const int n = system.NumLinks();
  std::vector<std::vector<char>> blocked(
      static_cast<std::size_t>(n), std::vector<char>(static_cast<std::size_t>(n), 0));
  const double beta2 = system.config().beta * system.config().beta;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    for (std::size_t j = i + 1; j < universe.size(); ++j) {
      const int v = universe[i];
      const int w = universe[j];
      if (sinr::PairwiseAffectanceProduct(kernel, v, w) > beta2) {
        blocked[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)] = 1;
        blocked[static_cast<std::size_t>(w)][static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  auto feasible = [&](const std::vector<int>& S) {
    const int last = S.back();
    for (int v : S) {
      if (v != last && blocked[static_cast<std::size_t>(v)]
                              [static_cast<std::size_t>(last)]) {
        return false;
      }
    }
    return sinr::FeasibleWithPowerControl(kernel, S).feasible;
  };
  return Solver(std::move(universe), feasible).Solve();
}

}  // namespace decaylib::capacity
