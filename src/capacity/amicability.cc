#include "capacity/amicability.h"

#include <algorithm>

#include "capacity/partitions.h"
#include "core/check.h"

namespace decaylib::capacity {

AmicabilityWitness BuildAmicabilityWitness(const sinr::KernelCache& kernel,
                                           std::span<const int> S,
                                           double zeta) {
  DL_CHECK(kernel.HasUniformPower(),
           "the witness is built under uniform power");
  AmicabilityWitness witness;
  if (S.empty()) return witness;

  // Largest zeta-separated class from the Lemma 4.1 partition.
  const auto classes = Lemma41Partition(kernel, S, zeta);
  std::size_t best = 0;
  for (std::size_t i = 1; i < classes.size(); ++i) {
    if (classes[i].size() > classes[best].size()) best = i;
  }
  witness.s_hat = classes[best];

  // Keep the low out-affectance half (threshold 2, as in the proof).
  for (int v : witness.s_hat) {
    if (kernel.OutAffectance(v, witness.s_hat) <= 2.0) {
      witness.s_prime.push_back(v);
    }
  }
  if (!witness.s_prime.empty()) {
    witness.shrink_factor = static_cast<double>(S.size()) /
                            static_cast<double>(witness.s_prime.size());
  }
  for (int v = 0; v < kernel.NumLinks(); ++v) {
    witness.max_out_affectance =
        std::max(witness.max_out_affectance,
                 kernel.OutAffectance(v, witness.s_prime));
  }
  return witness;
}

}  // namespace decaylib::capacity
