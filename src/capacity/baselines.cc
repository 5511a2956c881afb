#include "capacity/baselines.h"

#include <optional>

#include "sinr/admission.h"
#include "sinr/power.h"

namespace decaylib::capacity {

std::vector<int> GreedyFeasible(const sinr::KernelCache& kernel,
                                std::span<const int> candidates) {
  return sinr::AdmitWhileFeasible(kernel, sinr::DecayOrder(kernel, candidates));
}

std::vector<int> GreedyFeasible(const sinr::FarFieldKernel& kernel,
                                std::span<const int> candidates) {
  return sinr::AdmitWhileFeasible(kernel, sinr::DecayOrder(kernel, candidates));
}

std::vector<int> GreedyFeasible(const sinr::LinkSystem& system,
                                std::span<const int> candidates) {
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return GreedyFeasible(kernel, candidates);
}

std::vector<int> GreedyFeasible(const sinr::LinkSystem& system) {
  const std::vector<int> all = sinr::AllLinks(system);
  return GreedyFeasible(system, all);
}

std::vector<int> GreedyHalfAffectance(const sinr::KernelCache& kernel,
                                      std::span<const int> candidates) {
  return sinr::HalfBudgetAdmission(kernel, sinr::DecayOrder(kernel, candidates),
                                   std::nullopt)
      .selected;
}

std::vector<int> GreedyHalfAffectance(const sinr::LinkSystem& system,
                                      std::span<const int> candidates) {
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return GreedyHalfAffectance(kernel, candidates);
}

std::vector<int> GreedyHalfAffectance(const sinr::LinkSystem& system) {
  const std::vector<int> all = sinr::AllLinks(system);
  return GreedyHalfAffectance(system, all);
}

std::vector<int> RandomFeasible(const sinr::LinkSystem& system,
                                std::span<const int> candidates,
                                geom::Rng& rng) {
  std::vector<int> order(candidates.begin(), candidates.end());
  rng.Shuffle(order);
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  return sinr::AdmitWhileFeasible(kernel, order);
}

}  // namespace decaylib::capacity
