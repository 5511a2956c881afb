// Power-controlled feasibility: can *some* power assignment make a set
// feasible?
//
// Theorems 3 and 6 state hardness "even if the algorithm is allowed
// arbitrary power control against an adversary that uses uniform power";
// verifying their constructions needs an oracle for power-controlled
// feasibility.  Two classic tools:
//
//  * The Foschini-Miljanic fixed point: iterate
//        P_v <- beta * (N + sum_{u != v} P_u G_uv) / G_vv.
//    The iteration converges to the (component-wise minimal) feasible power
//    vector iff the spectral radius of the normalised gain matrix
//    B_vu = beta * G_uv / G_vv is below 1; otherwise powers diverge.
//  * The pairwise obstruction used in the Theorem 6 proof: if
//    a^P_v(w) * a^P_w(v) >= beta^2 * (f_vv f_ww)/(f_vw f_wv) > beta^2 for a
//    pair, no power assignment serves both links (the product is
//    power-invariant).
//
// Every oracle runs on a prebuilt sinr::KernelCache: the normalised-gain
// and cross-decay kernels turn the per-call matrix build into O(1) loads.
// All three are power-invariant, so any kernel over the system serves
// (KernelCache(system, UniformPower(system)) when there is no other).
#pragma once

#include <optional>
#include <span>

#include "sinr/kernel.h"

namespace decaylib::sinr {

struct PowerControlResult {
  bool feasible = false;
  PowerAssignment power;     // valid iff feasible (normalised: max = 1)
  int iterations = 0;        // fixed-point iterations performed
  double spectral_radius_estimate = 0.0;  // growth rate estimate at exit
};

// Runs the Foschini-Miljanic iteration on the links in S.  With noise = 0
// the recursion is linear and the growth rate of ||P|| estimates the
// spectral radius; feasibility is declared when the iteration contracts
// (radius < 1 - tol) and denied when it expands.
PowerControlResult FeasibleWithPowerControl(const KernelCache& kernel,
                                            std::span<const int> S,
                                            int max_iterations = 10000,
                                            double tol = 1e-9);

// The power-invariant pairwise product beta^2 f_vv f_ww / (f_vw f_wv).
// > beta^2 (strictly, in the no-noise model) implies l_v and l_w cannot
// coexist under any power assignment.
double PairwiseAffectanceProduct(const KernelCache& kernel, int v, int w);

// True iff some pair in S has PairwiseAffectanceProduct > threshold
// (defaults to beta^2): a certificate that S is infeasible under any power.
bool HasPairwiseObstruction(const KernelCache& kernel, std::span<const int> S);

}  // namespace decaylib::sinr
