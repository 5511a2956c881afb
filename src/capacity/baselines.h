// Baseline capacity heuristics for comparison with Algorithm 1.
//
//  * GreedyFeasible: process links in increasing decay order; admit a link
//    whenever the set stays feasible.  The natural general-metric greedy in
//    the lineage of [21, 30]; its approximation guarantee in decay spaces is
//    exponential in zeta (refined to 3^zeta in the sibling paper [24]).
//  * GreedyHalfAffectance: Algorithm 1 *without* the separation test --
//    admit when a_v(X) + a_X(v) <= 1/2, then filter to a_X(v) <= 1.  This is
//    the [30]-style oblivious-power greedy specialised to uniform power;
//    comparing it against Algorithm 1 isolates the contribution of the
//    separation condition (the source of the plane's polynomial bound).
//  * RandomFeasible: admit in random order while feasible; a sanity floor.
//
// All baselines run on a prebuilt kernel (KernelCache(system,
// UniformPower(system)) for the paper's setting) and return feasible sets;
// every loop is the shared one of sinr/admission.h (incremental
// feasibility: O(|S|) per candidate instead of O(|S|^2) re-summation).
// GreedyFeasible is one template over either kernel backend.
#pragma once

#include <span>
#include <vector>

#include "geom/rng.h"
#include "sinr/admission.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"

namespace decaylib::capacity {

template <sinr::AdmissionKernel Kernel>
std::vector<int> GreedyFeasible(const Kernel& kernel,
                                std::span<const int> candidates) {
  return sinr::AdmitWhileFeasible(kernel, sinr::DecayOrder(kernel, candidates));
}

std::vector<int> GreedyHalfAffectance(const sinr::KernelCache& kernel,
                                      std::span<const int> candidates);

std::vector<int> RandomFeasible(const sinr::KernelCache& kernel,
                                std::span<const int> candidates,
                                geom::Rng& rng);

}  // namespace decaylib::capacity
