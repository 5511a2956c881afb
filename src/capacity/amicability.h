// Amicability (Definition 4.2 and Theorem 4).
//
// A link set L is h(zeta)-amicable if every feasible subset S contains a
// subset S' of size >= c|S|/h(zeta) such that *every* link of L (inside or
// outside S') has out-affectance a_v(S') <= c under uniform power.  Theorem 4
// shows bounded-growth decay spaces are O(D * zeta^{2A'})-amicable, with the
// witness built as: a zeta-separated subset S-hat of S of size
// Omega(|S|/zeta^{2A'}) (Lemma 4.1) restricted to its links of out-affectance
// at most 2 (at least half of S-hat, by feasibility + Markov).
//
// This module constructs the Theorem 4 witness and measures the realised
// amicability constants, which bench e07 compares with the predicted bound
// (1 + 2e^2) * D.
#pragma once

#include <span>
#include <vector>

#include "sinr/kernel.h"

namespace decaylib::capacity {

struct AmicabilityWitness {
  std::vector<int> s_hat;    // the zeta-separated subset of S
  std::vector<int> s_prime;  // members of s_hat with out-affectance <= 2
  double shrink_factor = 0.0;      // |S| / |s_prime| (the realised h(zeta))
  double max_out_affectance = 0.0; // max over all links v of a_v(S')
};

// Builds the Theorem 4 witness for a feasible set S; `kernel` must have
// uniform power (KernelCache(system, UniformPower(system))).
AmicabilityWitness BuildAmicabilityWitness(const sinr::KernelCache& kernel,
                                           std::span<const int> S,
                                           double zeta);

}  // namespace decaylib::capacity
