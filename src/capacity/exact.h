// Exact CAPACITY: maximum-cardinality feasible subsets by branch and bound.
//
// Feasibility is hereditary (dropping a link only lowers every in-
// affectance), so include/exclude branching with a cardinality bound is
// sound.  Two oracles:
//   * fixed power assignment (e.g. uniform) -- cheap incremental affectance;
//   * arbitrary power control -- each candidate set checked with the
//     Foschini-Miljanic oracle; pairwise obstructions prune most branches.
// Both are exponential in the worst case; intended for ground truth on
// n <= ~24 (fixed power) / ~16 (power control).
#pragma once

#include <span>
#include <vector>

#include "sinr/kernel.h"

namespace decaylib::capacity {

// Maximum feasible subset of `candidates` under the kernel's power
// (build it with UniformPower for the paper's setting).
std::vector<int> ExactCapacity(const sinr::KernelCache& kernel,
                               std::span<const int> candidates);

// Maximum subset of `candidates` feasible under *some* power assignment.
// Every oracle it runs is power-invariant, so any kernel over the system
// serves.
std::vector<int> ExactCapacityPowerControl(const sinr::KernelCache& kernel,
                                           std::span<const int> candidates);

}  // namespace decaylib::capacity
