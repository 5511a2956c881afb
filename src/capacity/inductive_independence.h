// Inductive independence ([45, 38], cited in the paper as "a more systematic
// approach to SINR analysis ... can by itself be seen as a parameter of the
// decay space").
//
// For the decay (length) order "prec", the inductive independence number of
// a link instance is
//     rho = max_v  max over feasible S subseteq {w : v prec w} of
//             sum_{w in S} (a_v(w) + a_w(v)),
// the worst bidirectional affectance a link can exchange with a feasible set
// of *longer* links.  Many transfer-list results (spectrum auctions, dynamic
// scheduling, distributed scheduling) are parameterised by rho; in fading
// metrics rho = O(1), and in decay spaces it grows with the metricity-type
// parameters, which bench e14 measures.
//
// The inner maximisation is NP-hard in general; we report a greedy lower
// bound (heaviest-exchange-first, kept feasible) plus an upper bound from
// relaxing feasibility to cardinality-free summation of clamped affectances.
#pragma once

#include <vector>

#include "sinr/kernel.h"

namespace decaylib::capacity {

struct InductiveIndependence {
  double greedy_lower = 0.0;  // realised by an explicit feasible witness
  double upper = 0.0;         // sum over all longer links (no feasibility)
  int arg_link = -1;          // link attaining the greedy lower bound
};

// Both bounds under the kernel's power assignment.
InductiveIndependence EstimateInductiveIndependence(
    const sinr::KernelCache& kernel);

}  // namespace decaylib::capacity
