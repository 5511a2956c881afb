#include "distributed/contention.h"

#include <algorithm>

#include "core/check.h"

namespace decaylib::distributed {

ContentionResult RunContentionResolution(const sinr::KernelCache& kernel,
                                         const ContentionConfig& config,
                                         geom::Rng& rng) {
  DL_CHECK(config.initial_probability > 0.0 &&
               config.initial_probability <= 1.0,
           "initial probability must be in (0,1]");
  const int n = kernel.NumLinks();
  const double beta = kernel.system().config().beta;

  ContentionResult result;
  result.success_slot.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> prob(static_cast<std::size_t>(n),
                           config.initial_probability);
  int active = n;
  std::vector<int> senders;
  for (int slot = 0; slot < config.max_slots && active > 0; ++slot) {
    result.slots = slot + 1;
    senders.clear();
    for (int v = 0; v < n; ++v) {
      if (result.success_slot[static_cast<std::size_t>(v)] >= 0) continue;
      if (rng.Chance(prob[static_cast<std::size_t>(v)])) senders.push_back(v);
    }
    result.transmissions += static_cast<long long>(senders.size());
    for (int v : senders) {
      const double sinr = kernel.Sinr(v, senders);
      auto& p = prob[static_cast<std::size_t>(v)];
      if (sinr >= beta) {
        result.success_slot[static_cast<std::size_t>(v)] = slot;
        --active;
        p = std::min(2.0 * p, config.max_probability);
      } else {
        p = std::max(p / 2.0, config.min_probability);
      }
    }
  }
  result.completed = active == 0;
  return result;
}

}  // namespace decaylib::distributed
