// Algorithm 1 of the paper: uniform-power CAPACITY in bounded-growth decay
// spaces, zeta^{O(1)}-approximate (Theorem 5); O(alpha^4) on the plane.
//
// Verbatim from the paper:
//
//   Let L be a set of links using uniform power and let X <- {}
//   for l_v in L in order of increasing f_vv value do
//     if l_v is zeta/2-separated from X and a_v(X) + a_X(v) <= 1/2 then
//       X <- X u {l_v}
//   Return S <- {l_v in X | a_X(v) <= 1}
//
// The final filter is needed because links admitted later can push an
// earlier link's in-affectance past the admission margin; Markov's
// inequality guarantees |S| >= |X| / 2 (Eqn. 5 in the proof of Theorem 5).
//
// One template runs the loop (sinr/admission.h) on either kernel backend:
// on sinr::KernelCache the separation tests are decay-domain comparisons
// and the in/out-affectance budgets incremental accumulator reads, so a run
// costs O(n^2) cache build plus O(n |X|) admission work with no pow on the
// hot path; on sinr::FarFieldKernel the same decisions come from certified
// pooled bounds.  A caller holding only a LinkSystem builds the paper's
// uniform-power kernel once: KernelCache(system, UniformPower(system)).
#pragma once

#include <span>
#include <vector>

#include "sinr/admission.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"

namespace decaylib::capacity {

// selected = S, the returned feasible set; admitted = X, before the final
// affectance filter.
using Algorithm1Result = sinr::AdmissionResult;

// Runs Algorithm 1 on the candidate links (defaults to all links) with the
// given metricity zeta of the underlying space, under the kernel's power
// assignment (UniformPower for the paper's algorithm).
template <sinr::AdmissionKernel Kernel>
Algorithm1Result RunAlgorithm1(const Kernel& kernel, double zeta,
                               std::span<const int> candidates) {
  return sinr::HalfBudgetAdmission(
      kernel, sinr::DecayOrder(kernel, candidates), zeta);
}

template <sinr::AdmissionKernel Kernel>
Algorithm1Result RunAlgorithm1(const Kernel& kernel, double zeta) {
  return RunAlgorithm1(kernel, zeta, sinr::AllLinks(kernel));
}

}  // namespace decaylib::capacity
