#include "scheduling/scheduler.h"

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "sinr/power.h"

namespace decaylib::scheduling {

namespace {

template <class Kernel>
Schedule ScheduleWith(const Kernel& kernel, double zeta, Extractor extractor,
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

}  // namespace

Schedule ScheduleLinks(const sinr::KernelCache& kernel, double zeta,
                       Extractor extractor, std::span<const int> candidates) {
  return ScheduleWith(kernel, zeta, extractor, candidates);
}

Schedule ScheduleLinks(const sinr::FarFieldKernel& kernel, double zeta,
                       Extractor extractor, std::span<const int> candidates) {
  return ScheduleWith(kernel, zeta, extractor, candidates);
}

Schedule ScheduleLinks(const sinr::LinkSystem& system, double zeta,
                       Extractor extractor, std::span<const int> candidates) {
  // One kernel build serves every slot extraction: the affectance and
  // distance kernels do not depend on the shrinking candidate set.
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return ScheduleLinks(kernel, zeta, extractor, candidates);
}

Schedule ScheduleLinks(const sinr::LinkSystem& system, double zeta,
                       Extractor extractor) {
  const std::vector<int> all = sinr::AllLinks(system);
  return ScheduleLinks(system, zeta, extractor, all);
}

bool ValidateSchedule(const sinr::KernelCache& kernel, const Schedule& schedule,
                      std::span<const int> candidates) {
  return sinr::ValidateSlots(kernel, schedule, candidates);
}

bool ValidateSchedule(const sinr::FarFieldKernel& kernel,
                      const Schedule& schedule,
                      std::span<const int> candidates) {
  return sinr::ValidateSlots(kernel, schedule, candidates);
}

bool ValidateSchedule(const sinr::LinkSystem& system, const Schedule& schedule,
                      std::span<const int> candidates) {
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return ValidateSchedule(kernel, schedule, candidates);
}

}  // namespace decaylib::scheduling
