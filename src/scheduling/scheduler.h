// Link scheduling by repeated capacity extraction (theory transfer of the
// SCHEDULING results listed in Sec. 2.3).
//
// SCHEDULING asks for a partition of the link set into the fewest feasible
// slots.  Extracting an approximate maximum feasible subset per round gives
// an O(rho log n)-approximation when the extractor is rho-approximate -- the
// standard reduction the paper's transfer list relies on ([16, 17, 43]).
// Two extractors are provided: Algorithm 1 (zeta-aware) and the
// general-metric greedy baseline.
//
// ScheduleLinks and ValidateSchedule are each one template over either
// kernel backend (sinr/admission.h); one kernel build serves every slot
// extraction, since the kernels do not depend on the shrinking candidate
// set.
#pragma once

#include <span>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "sinr/admission.h"

namespace decaylib::scheduling {

enum class Extractor {
  kAlgorithm1,      // paper's Algorithm 1 per slot
  kGreedyFeasible,  // general-metric greedy per slot
};

using Schedule = sinr::SlotSchedule;

// Schedules all candidate links under the kernel's power (uniform for the
// paper's setting).  `zeta` is the metricity of the underlying space (used
// by Algorithm 1's separation test).  Guarantees termination: if an
// extraction round returns an empty set while links remain, the shortest
// remaining link is scheduled alone.
template <sinr::AdmissionKernel Kernel>
Schedule ScheduleLinks(const Kernel& kernel, double zeta, Extractor extractor,
                       std::span<const int> candidates) {
  return sinr::ScheduleByExtraction(
      kernel, candidates,
      [&](std::span<const int> remaining) -> std::vector<int> {
        if (extractor == Extractor::kAlgorithm1) {
          return capacity::RunAlgorithm1(kernel, zeta, remaining).selected;
        }
        return capacity::GreedyFeasible(kernel, remaining);
      });
}

// True iff every slot is feasible under the kernel's power (the far-field
// kernel certifies feasibility) and the slots partition exactly the given
// candidate set.
template <sinr::AdmissionKernel Kernel>
bool ValidateSchedule(const Kernel& kernel, const Schedule& schedule,
                      std::span<const int> candidates) {
  return sinr::ValidateSlots(kernel, schedule, candidates);
}

}  // namespace decaylib::scheduling
