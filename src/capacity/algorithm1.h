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
// The default entry points run on the cached SINR kernel (sinr::KernelCache):
// separation tests become decay-domain comparisons and the in/out-affectance
// budgets incremental accumulator reads, so a run costs O(n^2) cache build
// plus O(n |X|) admission work with no pow on the hot path.  The
// FarFieldKernel overload runs the same loop (sinr/admission.h) against the
// matrix-free kernel.  The *Naive variants recompute every kernel entry
// through the LinkSystem methods; they are kept as the reference path that
// property tests compare against.
#pragma once

#include <span>
#include <vector>

#include "sinr/admission.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::capacity {

// selected = S, the returned feasible set; admitted = X, before the final
// affectance filter.
using Algorithm1Result = sinr::AdmissionResult;

// Runs Algorithm 1 on the candidate links (defaults to all links) with the
// given metricity zeta of the underlying space.  Uses uniform power 1.
Algorithm1Result RunAlgorithm1(const sinr::LinkSystem& system, double zeta,
                               std::span<const int> candidates);

Algorithm1Result RunAlgorithm1(const sinr::LinkSystem& system, double zeta);

// Cached-kernel entry points: reuse a prebuilt kernel (e.g. across the slots
// of a schedule).  The kernel's power assignment is used as-is; build it
// with UniformPower for the paper's algorithm.
Algorithm1Result RunAlgorithm1(const sinr::KernelCache& kernel, double zeta,
                               std::span<const int> candidates);

Algorithm1Result RunAlgorithm1(const sinr::KernelCache& kernel, double zeta);

Algorithm1Result RunAlgorithm1(const sinr::FarFieldKernel& kernel, double zeta,
                               std::span<const int> candidates);

// Reference implementation on the naive LinkSystem methods; recomputes every
// affectance and separation from scratch.  Kept for property tests and
// speedup benchmarks.
Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta,
                                    std::span<const int> candidates);

Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta);

}  // namespace decaylib::capacity
