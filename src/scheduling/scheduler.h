// Link scheduling by repeated capacity extraction (theory transfer of the
// SCHEDULING results listed in Sec. 2.3).
//
// SCHEDULING asks for a partition of the link set into the fewest feasible
// slots.  Extracting an approximate maximum feasible subset per round gives
// an O(rho log n)-approximation when the extractor is rho-approximate -- the
// standard reduction the paper's transfer list relies on ([16, 17, 43]).
// Two extractors are provided: Algorithm 1 (zeta-aware) and the
// general-metric greedy baseline.
#pragma once

#include <span>
#include <vector>

#include "sinr/admission.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::scheduling {

enum class Extractor {
  kAlgorithm1,      // paper's Algorithm 1 per slot
  kGreedyFeasible,  // general-metric greedy per slot
};

using Schedule = sinr::SlotSchedule;

// Schedules all candidate links (uniform power).  `zeta` is the metricity of
// the underlying space (used by Algorithm 1's separation test).  Guarantees
// termination: if an extraction round returns an empty set while links
// remain, the shortest remaining link is scheduled alone.  The kernel
// overloads reuse a prebuilt kernel (e.g. across the tasks of a batched
// scenario run) and run one loop (sinr/admission.h) over either backend;
// the LinkSystem signatures build a uniform-power kernel internally and
// produce identical schedules.
Schedule ScheduleLinks(const sinr::KernelCache& kernel, double zeta,
                       Extractor extractor, std::span<const int> candidates);
Schedule ScheduleLinks(const sinr::FarFieldKernel& kernel, double zeta,
                       Extractor extractor, std::span<const int> candidates);

Schedule ScheduleLinks(const sinr::LinkSystem& system, double zeta,
                       Extractor extractor, std::span<const int> candidates);

Schedule ScheduleLinks(const sinr::LinkSystem& system, double zeta,
                       Extractor extractor);

// True iff every slot is feasible under the kernel's power and the slots
// partition exactly the given candidate set (the LinkSystem signature uses
// uniform power; the far-field kernel certifies feasibility).
bool ValidateSchedule(const sinr::KernelCache& kernel, const Schedule& schedule,
                      std::span<const int> candidates);
bool ValidateSchedule(const sinr::FarFieldKernel& kernel,
                      const Schedule& schedule,
                      std::span<const int> candidates);
bool ValidateSchedule(const sinr::LinkSystem& system, const Schedule& schedule,
                      std::span<const int> candidates);

}  // namespace decaylib::scheduling
