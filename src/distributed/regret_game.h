// No-regret capacity game ([1] Asgeirsson-Mitra; extended in [11, 19, 12]).
//
// Every link plays {transmit, idle} with multiplicative-weights updates: the
// utility of transmitting is +1 on success and -penalty on failure, idling
// is worth 0.  On h(zeta)-amicable instances (Theorem 4), the long-run
// average number of concurrent successes is a constant fraction of
// OPT / h(zeta); bench e07/e08 compare the empirical average against
// Algorithm 1 and OPT.
//
// The hot path runs on a sinr::KernelCache and keeps every receiver's
// interference sum across rounds: the multiplicative weights converge, so
// between rounds only a few links join or leave the sender set, and each
// change updates every receiver's running sum from one row of the cached
// cross-decay matrix (O(n) per changed link, O(n) state, no new n x n
// table).  Each sum carries a certified rounding bound; a success check
// SINR >= beta is decided from sum +- bound whenever that clears
// signal/beta by a 1e-9 relative band, and otherwise (the band, or a
// non-finite sum) by the exact KernelCache::Sinr sender-order sum, which
// also re-anchors the running sum.  The band dwarfs the exact sum's own
// rounding, so the certified decision is the exact one by construction:
// every trajectory is bit-identical to RunRegretGameNaive, the original
// per-round implementation kept as the test oracle and bench A/B baseline.
// The counters distributed.regret_checks / _certified_accepts /
// _certified_rejects / _exact_fallbacks record how each check was decided.
//
// The LinkSystem entry point keeps its historical uniform-power semantics
// and dispatches on size: below kRegretKernelCrossover links the O(n^2)
// kernel build costs more than the per-round work it saves, so small
// systems take the naive route; at and above the crossover it builds one
// kernel and delegates.  Both routes are bit-identical at a fixed seed, so
// the dispatch is result-invisible.
#pragma once

#include <vector>

#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::distributed {

struct RegretConfig {
  double learning_rate = 0.1;   // multiplicative-weights eta, in (0, 1)
  double failure_penalty = 1.0; // cost of a failed transmission, >= 0
  int rounds = 2000;
  int measure_tail = 500;       // rounds at the end used for averaging
};

struct RegretResult {
  double average_successes = 0.0;  // mean concurrent successes in the tail
  double transmit_rate = 0.0;      // mean fraction of links transmitting
  std::vector<double> final_transmit_probability;  // per link

  // Bitwise equality over every field: the naive-vs-cached exactness gates
  // (tests, bench_e21) compare whole results, so a new field is covered
  // automatically.
  friend bool operator==(const RegretResult&, const RegretResult&) = default;
};

// Link count at which a one-off kernel build starts paying for itself for
// a *single* game (callers that already hold a warm kernel should use the
// KernelCache overload regardless of size).  bench_e21 (Release, 4-core
// x86-64, best of 7) measured the cached route, build included, 1.2x
// (120 rounds) to 1.5x (300 rounds) faster than naive at n = 8, and within
// noise of it at n = 4.
inline constexpr int kRegretKernelCrossover = 8;

// Runs the game against a warm kernel (and its power assignment).
RegretResult RunRegretGame(const sinr::KernelCache& kernel,
                           const RegretConfig& config, geom::Rng& rng);

// Historical entry point (uniform power): naive evaluation below
// kRegretKernelCrossover links, one kernel build + the cached overload at
// or above it.  Bit-identical to the naive reference either way.
RegretResult RunRegretGame(const sinr::LinkSystem& system,
                           const RegretConfig& config, geom::Rng& rng);

// Naive reference (per-round LinkSystem::Sinr under uniform power): kept as
// the test oracle and bench A/B baseline for the cached path.
RegretResult RunRegretGameNaive(const sinr::LinkSystem& system,
                                const RegretConfig& config, geom::Rng& rng);

}  // namespace decaylib::distributed
