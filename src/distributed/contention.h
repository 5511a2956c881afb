// Distributed contention resolution for links (Kesselheim-Vocking style,
// [45] in the paper's transfer list).
//
// Each link keeps a transmission probability; every slot it transmits with
// that probability, doubling it (up to a cap) after a successful slot and
// halving it after a failed transmission.  A link retires after its first
// success.  The analysis in [45] only uses metric properties, so by Prop. 1
// it transfers to decay spaces with alpha replaced by zeta; the simulation
// here lets benches measure the slots-to-completion against the space's
// parameters rather than assume them.
#pragma once

#include <vector>

#include "geom/rng.h"
#include "sinr/kernel.h"

namespace decaylib::distributed {

struct ContentionConfig {
  double initial_probability = 0.25;
  double max_probability = 0.25;
  double min_probability = 1e-4;
  int max_slots = 100000;
};

struct ContentionResult {
  bool completed = false;      // all links succeeded at least once
  int slots = 0;               // slots executed
  long long transmissions = 0;
  std::vector<int> success_slot;  // per link, slot of first success (-1 if none)
};

// Runs the protocol under the kernel's power (the paper's setting: build it
// with UniformPower) until every link has had one successful transmission
// (raw SINR >= beta rule, KernelCache::Sinr) or max_slots elapsed.
ContentionResult RunContentionResolution(const sinr::KernelCache& kernel,
                                         const ContentionConfig& config,
                                         geom::Rng& rng);

}  // namespace decaylib::distributed
