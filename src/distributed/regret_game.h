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
// every trajectory is bit-identical to the per-round LinkSystem::Sinr
// reference (tests/oracles), which shares the game driver in `detail` below.
// The counters distributed.regret_checks / _certified_accepts /
// _certified_rejects / _exact_fallbacks record how each check was decided.
//
// The game runs on a prebuilt kernel and its power assignment
// (KernelCache(system, UniformPower(system)) for the classic setting) at
// every size: even a one-off build pays for itself from a few links on
// (bench_e21: the cached route, build included, 1.2x-1.5x faster than the
// per-round reference at n = 8, within noise at n = 4).
#pragma once

#include <cmath>
#include <vector>

#include "core/check.h"
#include "geom/rng.h"
#include "sinr/kernel.h"

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

// Runs the game against a warm kernel (and its power assignment).
RegretResult RunRegretGame(const sinr::KernelCache& kernel,
                           const RegretConfig& config, geom::Rng& rng);

namespace detail {

// Shared game driver: sender sampling, the multiplicative-weights update and
// the tail accounting are common code, so at a fixed seed the cached path
// and the per-round reference (tests/oracles) draw the identical randomness
// stream and can only differ
// through `decide_round(senders, ok)` -- which sets ok[i] to whether
// senders[i]'s SINR clears beta against the whole round's sender set (the
// set is fixed before any weight moves).  Senders are listed in ascending
// link id.
template <typename DecideRound>
RegretResult RunRegretLoop(int n, const RegretConfig& config, geom::Rng& rng,
                           DecideRound&& decide_round) {
  DL_CHECK(config.rounds >= config.measure_tail && config.measure_tail >= 1,
           "rounds must cover the measurement tail");
  DL_CHECK(config.learning_rate > 0.0 && config.learning_rate < 1.0,
           "learning rate must be in (0,1)");
  DL_CHECK(std::isfinite(config.failure_penalty) &&
               config.failure_penalty >= 0.0,
           "failure penalty must be a non-negative finite cost");

  // Weights for the two actions per link: [transmit, idle].
  std::vector<double> w_tx(static_cast<std::size_t>(n), 1.0);
  std::vector<double> w_idle(static_cast<std::size_t>(n), 1.0);
  // Multiplicative weights on the realised utility of the played action
  // (+1 on success, -penalty on failure); idle always has utility 0, so
  // only the transmit weight moves.  exp(lr * 1.0) is exp(lr) bit-for-bit.
  const double success_factor = std::exp(config.learning_rate);
  const double failure_factor =
      std::exp(config.learning_rate * -config.failure_penalty);

  RegretResult result;
  long long tail_successes = 0;
  long long tail_transmissions = 0;
  std::vector<int> senders;
  std::vector<char> ok;
  for (int round = 0; round < config.rounds; ++round) {
    senders.clear();
    for (int v = 0; v < n; ++v) {
      const double p = w_tx[static_cast<std::size_t>(v)] /
                       (w_tx[static_cast<std::size_t>(v)] +
                        w_idle[static_cast<std::size_t>(v)]);
      if (rng.Chance(p)) senders.push_back(v);
    }
    ok.assign(senders.size(), 0);
    decide_round(senders, ok);
    int successes = 0;
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const std::size_t v = static_cast<std::size_t>(senders[i]);
      if (ok[i]) ++successes;
      w_tx[v] *= ok[i] ? success_factor : failure_factor;
      // Keep weights bounded for numeric safety.
      const double scale = w_tx[v] + w_idle[v];
      if (scale > 1e100 || scale < 1e-100) {
        w_tx[v] /= scale;
        w_idle[v] /= scale;
      }
    }
    if (round >= config.rounds - config.measure_tail) {
      tail_successes += successes;
      tail_transmissions += static_cast<long long>(senders.size());
    }
  }
  result.average_successes =
      static_cast<double>(tail_successes) / config.measure_tail;
  result.transmit_rate =
      n == 0 ? 0.0
             : static_cast<double>(tail_transmissions) /
                   (static_cast<double>(config.measure_tail) * n);
  result.final_transmit_probability.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    result.final_transmit_probability.push_back(w_tx[sv] /
                                                (w_tx[sv] + w_idle[sv]));
  }
  return result;
}

}  // namespace detail

}  // namespace decaylib::distributed
