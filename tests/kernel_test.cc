// Property tests for the cached SINR kernel layer (sinr/kernel.h).
//
// The kernel's contract is bit-for-bit agreement with the naive LinkSystem
// methods: every cached affectance, noise factor, distance, aggregate sum,
// feasibility verdict and separation check must equal the naive result
// exactly (EXPECT_EQ on doubles, not EXPECT_NEAR).  The sweep covers
// symmetric and asymmetric decay spaces, zero and positive noise, and
// uniform and non-uniform power -- and, at the algorithm level, that the
// cached RunAlgorithm1 reproduces the naive reference's output verbatim.
#include "sinr/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "obs/registry.h"
#include "oracles/oracles.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

namespace decaylib::sinr {
namespace {

struct Instance {
  std::string name;
  core::DecaySpace space;
  std::vector<Link> links;
  SinrConfig config;
  PowerAssignment power;
};

std::vector<Link> PairedLinks(int count) {
  std::vector<Link> links;
  links.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) links.push_back({2 * i, 2 * i + 1});
  return links;
}

// The four instance families of the bit-exactness sweep: {symmetric,
// asymmetric} x {noise 0, noise > 0} x {uniform, non-uniform power}.  The
// noisy instances deliberately leave some links unable to overcome noise.
std::vector<Instance> MakeInstances(std::uint64_t seed, int link_count) {
  std::vector<Instance> instances;
  {
    geom::Rng rng(seed);
    const auto pts = geom::SampleUniform(2 * link_count, 14.0, 14.0, rng);
    core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
    Instance inst{"geometric/noiseless/uniform", std::move(space),
                  PairedLinks(link_count), SinrConfig{1.5, 0.0}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = UniformPower(system);
    instances.push_back(std::move(inst));
  }
  {
    geom::Rng rng(seed + 1);
    const auto pts = geom::SampleUniform(2 * link_count, 10.0, 10.0, rng);
    core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.5);
    Instance inst{"geometric/noisy/uniform", std::move(space),
                  PairedLinks(link_count), SinrConfig{1.0, 0.05}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = UniformPower(system);  // some links fail the noise margin
    instances.push_back(std::move(inst));
  }
  {
    geom::Rng rng(seed + 2);
    core::DecaySpace space =
        spaces::LogUniformSpace(2 * link_count, 200.0, rng, /*symmetric=*/false);
    Instance inst{"loguniform/noiseless/powerlaw", std::move(space),
                  PairedLinks(link_count), SinrConfig{2.0, 0.0}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = PowerLaw(system, 0.6);
    instances.push_back(std::move(inst));
  }
  {
    geom::Rng rng(seed + 3);
    const auto pts = geom::SampleUniform(2 * link_count, 12.0, 12.0, rng);
    geom::Rng shadow(seed + 4);
    core::DecaySpace space =
        spaces::ShadowedGeometric(pts, 3.0, 6.0, shadow, /*symmetric=*/false);
    Instance inst{"shadowed-asymmetric/noisy/powerlaw", std::move(space),
                  PairedLinks(link_count), SinrConfig{1.2, 0.01}, {}};
    const LinkSystem system(inst.space, inst.links, inst.config);
    inst.power = ScaledToOvercomeNoise(system, PowerLaw(system, 0.4), 3.0);
    instances.push_back(std::move(inst));
  }
  return instances;
}

std::vector<int> RandomSubset(int n, double p, geom::Rng& rng) {
  std::vector<int> S;
  for (int v = 0; v < n; ++v) {
    if (rng.Chance(p)) S.push_back(v);
  }
  return S;
}

class KernelBitExactness : public ::testing::TestWithParam<int> {};

TEST_P(KernelBitExactness, PairwiseEntriesMatchNaive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 10)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    const core::DecaySpace& space = system.space();
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(kernel.LinkDecay(v), system.LinkDecay(v));
      EXPECT_EQ(kernel.CanOvercomeNoise(v),
                system.CanOvercomeNoise(v, inst.power));
      const Link& lv = system.link(v);
      // Every (w, v) pair, rows of links that cannot overcome noise
      // included: the cross and min-endpoint decays are power-independent,
      // and such a row's affectances are the 0 the admission loops rely on.
      for (int w = 0; w < n; ++w) {
        EXPECT_EQ(kernel.CrossDecay(w, v), system.CrossDecay(w, v));
        const Link& lw = system.link(w);
        // On the diagonal the two self-decays make the min exactly 0.
        const double min_pair =
            std::min(std::min(space(lv.sender, lw.receiver),
                              space(lw.sender, lv.receiver)),
                     std::min(space(lv.sender, lw.sender),
                              space(lv.receiver, lw.receiver)));
        EXPECT_EQ(kernel.MinPairDecay(v, w), min_pair);
        if (!kernel.CanOvercomeNoise(v)) {
          EXPECT_EQ(kernel.AffectanceRaw(w, v), 0.0);
          continue;
        }
        EXPECT_EQ(kernel.AffectanceRaw(w, v),
                  system.AffectanceRaw(w, v, inst.power));
        EXPECT_EQ(kernel.Affectance(w, v),
                  system.Affectance(w, v, inst.power));
      }
      if (kernel.CanOvercomeNoise(v)) {
        EXPECT_EQ(kernel.NoiseFactor(v), system.NoiseFactor(v, inst.power));
      }
      // The transposed affectance slab, read through a one-member
      // accumulator: Out(u) is min(1, a_u(v)), the clamped entry above.
      AffectanceAccumulator single(kernel);
      single.Add(v);
      for (int u = 0; u < n; ++u) {
        EXPECT_EQ(single.Out(u), kernel.Affectance(u, v));
      }
    }
    for (const double zeta : {1.0, 2.2, 3.0}) {
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(kernel.LinkLength(v, zeta), system.LinkLength(v, zeta));
        for (int w = 0; w < n; ++w) {
          if (w == v) continue;
          // pow of the min endpoint decay == min of the endpoint pows.
          EXPECT_EQ(kernel.LinkDistance(v, w, zeta),
                    system.LinkDistance(v, w, zeta));
        }
      }
    }
  }
}

TEST_P(KernelBitExactness, AggregateQueriesMatchNaive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    geom::Rng rng(seed * 977 + 5);
    for (int trial = 0; trial < 8; ++trial) {
      // S may contain links that cannot overcome noise (IsFeasible must
      // reject such sets); S_ok keeps only noise-capable links, the only
      // ones the naive OutAffectance / MaxInAffectance accept as targets.
      const std::vector<int> S = RandomSubset(n, 0.55, rng);
      std::vector<int> S_ok;
      for (int v : S) {
        if (kernel.CanOvercomeNoise(v)) S_ok.push_back(v);
      }
      for (int v = 0; v < n; ++v) {
        if (!kernel.CanOvercomeNoise(v)) continue;
        EXPECT_EQ(kernel.InAffectance(S, v),
                  system.InAffectance(S, v, inst.power));
        EXPECT_EQ(kernel.OutAffectance(v, S_ok),
                  system.OutAffectance(v, S_ok, inst.power));
      }
      EXPECT_EQ(kernel.IsFeasible(S), system.IsFeasible(S, inst.power));
      EXPECT_EQ(kernel.IsKFeasible(S, 2.5),
                system.IsKFeasible(S, 2.5, inst.power));
      EXPECT_EQ(kernel.MaxInAffectance(S_ok),
                system.MaxInAffectance(S_ok, inst.power));
      for (const double zeta : {1.7, 3.0}) {
        const double eta = zeta / 2.0;
        for (int v = 0; v < n; ++v) {
          EXPECT_EQ(kernel.IsSeparatedFrom(v, S, eta, zeta),
                    system.IsSeparatedFrom(v, S, eta, zeta));
        }
      }
    }
  }
}

TEST_P(KernelBitExactness, SeparationOracleMatchesNaivePredicates) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    for (const double zeta : {1.3, 2.0, 3.5}) {
      const SeparationOracle oracle(kernel, zeta / 2.0, zeta);
      geom::Rng rng(seed * 31 + static_cast<std::uint64_t>(zeta * 10));
      for (int trial = 0; trial < 6; ++trial) {
        const std::vector<int> L = RandomSubset(n, 0.5, rng);
        for (int v = 0; v < n; ++v) {
          EXPECT_EQ(oracle.IsSeparatedFrom(v, L),
                    system.IsSeparatedFrom(v, L, zeta / 2.0, zeta));
        }
      }
    }
  }
}

TEST_P(KernelBitExactness, AccumulatorMatchesNaivePrefixSums) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    geom::Rng rng(seed * 131 + 7);
    AffectanceAccumulator acc(kernel);
    FeasibilityAccumulator raw(kernel);
    // Only noise-capable links join the set, as in every admission loop
    // (the naive OutAffectance aborts on targets that cannot overcome).
    std::vector<int> order;
    for (int v = 0; v < n; ++v) {
      if (kernel.CanOvercomeNoise(v)) order.push_back(v);
    }
    rng.Shuffle(order);
    std::vector<int> members;
    for (int v : order) {
      acc.Add(v);
      raw.Add(v);
      members.push_back(v);
      for (int u = 0; u < n; ++u) {
        // InRaw is the left fold of a_w(u) over the members in insertion
        // order, from 0.0, for every link u.
        double raw_sum = 0.0;
        for (int w : members) raw_sum += kernel.AffectanceRaw(w, u);
        EXPECT_EQ(raw.InRaw(u), raw_sum);
        if (!kernel.CanOvercomeNoise(u)) continue;
        // Insertion order == naive iteration order: sums agree exactly.
        EXPECT_EQ(acc.In(u), system.InAffectance(members, u, inst.power));
        EXPECT_EQ(acc.Out(u), system.OutAffectance(u, members, inst.power));
      }
    }
    EXPECT_EQ(acc.members(), members);
    EXPECT_EQ(raw.members(), members);
  }
}

// CanAddFeasibly against the naive push-IsFeasible-pop loop over shuffled
// orders, noisy instances included: a link that cannot overcome noise is
// never probed (every admission loop checks that first) and the naive
// verdict for it must be "infeasible".
TEST_P(KernelBitExactness, CanAddFeasiblyMatchesPushIsFeasiblePop) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  int accepts = 0;
  int rejects = 0;
  int noise_bound = 0;
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    geom::Rng rng(seed * 17 + 11);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<int> order = AllLinks(system);
      rng.Shuffle(order);
      FeasibilityAccumulator acc(kernel);
      std::vector<int> chosen;
      for (int v : order) {
        chosen.push_back(v);
        const bool naive = system.IsFeasible(chosen, inst.power);
        chosen.pop_back();
        if (!kernel.CanOvercomeNoise(v)) {
          EXPECT_FALSE(naive);
          ++noise_bound;
          continue;
        }
        EXPECT_EQ(acc.CanAddFeasibly(v), naive) << "link " << v;
        if (!naive) {
          ++rejects;
          continue;
        }
        ++accepts;
        acc.Add(v);
        chosen.push_back(v);
      }
      EXPECT_EQ(acc.members(), chosen);
    }
  }
  EXPECT_GT(accepts, 0);
  EXPECT_GT(rejects, 0);
  EXPECT_GT(noise_bound, 0);
}

// Clear leaves nothing behind: a cleared and refilled accumulator holds the
// same members, sums and verdicts, bit for bit, as a fresh one.
TEST_P(KernelBitExactness, FeasibilityClearThenReuseMatchesFresh) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const Instance& inst : MakeInstances(seed, 12)) {
    SCOPED_TRACE(inst.name);
    const LinkSystem system(inst.space, inst.links, inst.config);
    const KernelCache kernel(system, inst.power);
    const int n = system.NumLinks();
    geom::Rng rng(seed * 5 + 2);
    const auto fill = [&](FeasibilityAccumulator& acc,
                          const std::vector<int>& order) {
      for (int v : order) {
        if (kernel.CanOvercomeNoise(v) && acc.CanAddFeasibly(v)) acc.Add(v);
      }
    };
    FeasibilityAccumulator reused(kernel);
    std::vector<int> order = AllLinks(system);
    rng.Shuffle(order);
    fill(reused, order);
    ASSERT_GT(reused.size(), 0);
    reused.Clear();
    EXPECT_EQ(reused.size(), 0);
    rng.Shuffle(order);
    fill(reused, order);
    FeasibilityAccumulator fresh(kernel);
    fill(fresh, order);
    EXPECT_EQ(reused.members(), fresh.members());
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(reused.Contains(u), fresh.Contains(u));
      EXPECT_EQ(reused.InRaw(u), fresh.InRaw(u));
      if (kernel.CanOvercomeNoise(u) && !fresh.Contains(u)) {
        EXPECT_EQ(reused.CanAddFeasibly(u), fresh.CanAddFeasibly(u));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelBitExactness, ::testing::Range(1, 9));

// --- shared link planes -------------------------------------------------------
//
// A kernel on a system that carries shared planes, a fresh
// KernelCache(system, power) that builds private ones, and the naive
// LinkSystem must agree bit for bit on every (w, v) entry: CrossDecay,
// MinPairDecay, AffectanceRaw and the transposed affectance row.

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Alternating orientation, so half the senders carry the larger node id.
std::vector<Link> MixedLinks(int count) {
  std::vector<Link> links;
  for (int i = 0; i < count; ++i) {
    links.push_back(i % 2 == 0 ? Link{2 * i, 2 * i + 1} : Link{2 * i + 1, 2 * i});
  }
  return links;
}

enum class PlaneSpace { kLazyGeometric, kFilledGeometric, kShadowedAsymmetric };

core::DecaySpace MakePlaneSpace(PlaneSpace kind, std::uint64_t seed, int nodes) {
  geom::Rng rng(seed);
  const auto pts = geom::SampleUniform(nodes, 12.0, 12.0, rng);
  if (kind == PlaneSpace::kShadowedAsymmetric) {
    return spaces::ShadowedGeometric(pts, 3.0, 6.0, rng, /*symmetric=*/false);
  }
  core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  if (kind == PlaneSpace::kFilledGeometric) space.Materialize();
  return space;
}

class SharedPlanes : public ::testing::TestWithParam<int> {};

TEST_P(SharedPlanes, KernelEntriesMatchFreshCacheAndNaive) {
  constexpr int kLinks = 24;
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const PlaneSpace kind :
       {PlaneSpace::kLazyGeometric, PlaneSpace::kFilledGeometric,
        PlaneSpace::kShadowedAsymmetric}) {
    for (const double tau : {0.0, 0.5}) {
      for (const double noise : {0.0, 0.02}) {
        SCOPED_TRACE("space " + std::to_string(static_cast<int>(kind)) +
                     " tau " + std::to_string(tau) + " noise " +
                     std::to_string(noise));
        const core::DecaySpace space = MakePlaneSpace(kind, seed, 2 * kLinks);
        const std::vector<Link> links = MixedLinks(kLinks);
        auto planes = std::make_shared<LinkPlanes>();
        BuildLinkPlanes(space, links, *planes);
        const SinrConfig config{1.5, noise};
        const LinkSystem shared_system(space, links, config, planes);
        const LinkSystem system(space, links, config);
        // Uniform power 1 leaves some links unable to overcome the noise.
        const PowerAssignment power =
            tau == 0.0 ? UniformPower(system) : PowerLaw(system, tau);
        // Neither the shared-plane build nor the power law fills a lazy
        // space; a private-plane build gathers from the matrix, filling it.
        const KernelCache shared(shared_system, power);
        EXPECT_EQ(space.filled(), kind != PlaneSpace::kLazyGeometric);
        const KernelCache fresh(system, power);
        EXPECT_TRUE(space.filled());
        EXPECT_LT(shared.MemoryBytes(), fresh.MemoryBytes());

        for (int v = 0; v < kLinks; ++v) {
          const Link& lv = system.link(v);
          const std::span<const double> into_shared = shared.AffectanceIntoRow(v);
          const std::span<const double> into_fresh = fresh.AffectanceIntoRow(v);
          for (int w = 0; w < kLinks; ++w) {
            const Link& lw = system.link(w);
            const double cross = system.CrossDecay(w, v);
            EXPECT_EQ(Bits(shared.CrossDecay(w, v)), Bits(cross));
            EXPECT_EQ(Bits(fresh.CrossDecay(w, v)), Bits(cross));
            const double min_pair =
                w == v ? 0.0
                       : std::min(std::min(space(lv.sender, lw.receiver),
                                           space(lw.sender, lv.receiver)),
                                  std::min(space(lv.sender, lw.sender),
                                           space(lv.receiver, lw.receiver)));
            EXPECT_EQ(Bits(shared.MinPairDecay(v, w)), Bits(min_pair));
            EXPECT_EQ(Bits(fresh.MinPairDecay(v, w)), Bits(min_pair));
            const double raw = shared.CanOvercomeNoise(v) && w != v
                                   ? system.AffectanceRaw(w, v, power)
                                   : 0.0;
            EXPECT_EQ(Bits(shared.AffectanceRaw(w, v)), Bits(raw));
            EXPECT_EQ(Bits(fresh.AffectanceRaw(w, v)), Bits(raw));
            EXPECT_EQ(Bits(into_shared[static_cast<std::size_t>(w)]), Bits(raw));
            EXPECT_EQ(Bits(into_fresh[static_cast<std::size_t>(w)]), Bits(raw));
          }
        }
      }
    }
  }
}

// Planes read from a lazy space's points equal planes gathered from the
// same space's filled matrix, entry for entry, and leave the space lazy.
TEST_P(SharedPlanes, LazyPlanesEqualGatheredPlanes) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::DecaySpace lazy =
      MakePlaneSpace(PlaneSpace::kLazyGeometric, seed, 64);
  const core::DecaySpace filled =
      MakePlaneSpace(PlaneSpace::kFilledGeometric, seed, 64);
  const std::vector<Link> links = MixedLinks(32);
  LinkPlanes from_points;
  LinkPlanes gathered;
  BuildLinkPlanes(lazy, links, from_points);
  BuildLinkPlanes(filled, links, gathered);
  EXPECT_FALSE(lazy.filled());
  ASSERT_EQ(from_points.n, 32);
  ASSERT_EQ(gathered.n, 32);
  for (std::size_t i = 0; i < from_points.cross.size(); ++i) {
    EXPECT_EQ(Bits(from_points.cross[i]), Bits(gathered.cross[i])) << i;
    EXPECT_EQ(Bits(from_points.min_pair[i]), Bits(gathered.min_pair[i])) << i;
  }
}

// A system's shared planes serve every kernel built on it: a rebuild into
// an arena reads them instead of building private ones.
TEST(SharedPlanesArena, ArenaRebuildReadsSharedPlanes) {
  const core::DecaySpace space =
      MakePlaneSpace(PlaneSpace::kLazyGeometric, 5, 40);
  const std::vector<Link> links = MixedLinks(20);
  auto planes = std::make_shared<LinkPlanes>();
  BuildLinkPlanes(space, links, *planes);
  const LinkSystem shared_system(space, links, {1.0, 0.0}, planes);
  const LinkSystem system(space, links, {1.0, 0.0});
  obs::SetEnabled(true);
  obs::Counter& plane_builds =
      obs::Registry::Global().GetCounter("sinr.plane_builds");
  const long long before = plane_builds.value();
  KernelArena arena;
  const KernelCache& rebuilt =
      arena.Rebuild(shared_system, PowerLaw(shared_system, 0.5));
  EXPECT_EQ(plane_builds.value(), before);
  EXPECT_FALSE(space.filled());
  const KernelCache fresh(system, PowerLaw(system, 0.5));
  EXPECT_EQ(plane_builds.value(), before + 1);
  obs::SetEnabled(false);
  for (int v = 0; v < 20; ++v) {
    for (int w = 0; w < 20; ++w) {
      EXPECT_EQ(Bits(rebuilt.CrossDecay(w, v)), Bits(fresh.CrossDecay(w, v)));
      EXPECT_EQ(Bits(rebuilt.AffectanceRaw(w, v)),
                Bits(fresh.AffectanceRaw(w, v)));
      EXPECT_EQ(Bits(rebuilt.MinPairDecay(v, w)),
                Bits(fresh.MinPairDecay(v, w)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPlanes, ::testing::Range(1, 5));

// --- algorithm-level agreement ---------------------------------------------

class CachedAlgorithmAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CachedAlgorithmAgreement, RunAlgorithm1MatchesNaive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  geom::Rng rng(seed);
  for (const double alpha : {2.0, 3.0, 4.0}) {
    for (const double box : {8.0, 25.0, 80.0}) {
      const auto pts = geom::SampleUniform(48, box, box, rng);
      const core::DecaySpace space = core::DecaySpace::Geometric(pts, alpha);
      const LinkSystem system(space, PairedLinks(24), {1.0, 1e-4});
      const double zeta = alpha;
      const KernelCache kernel(system, UniformPower(system));
      const auto cached = capacity::RunAlgorithm1(kernel, zeta);
      const auto naive = capacity::RunAlgorithm1Naive(system, zeta);
      EXPECT_EQ(cached.admitted, naive.admitted)
          << "alpha=" << alpha << " box=" << box;
      EXPECT_EQ(cached.selected, naive.selected)
          << "alpha=" << alpha << " box=" << box;
    }
  }
}

TEST_P(CachedAlgorithmAgreement, GreedyFeasibleMatchesNaiveReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  geom::Rng rng(seed * 7 + 3);
  const auto pts = geom::SampleUniform(40, 20.0, 20.0, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const LinkSystem system(space, PairedLinks(20), {1.0, 0.0});
  const PowerAssignment power = UniformPower(system);

  // Naive reference: the pre-kernel push-IsFeasible-pop loop.
  std::vector<int> order = system.OrderByDecay();
  std::vector<int> reference;
  for (int v : order) {
    if (!system.CanOvercomeNoise(v, power)) continue;
    reference.push_back(v);
    if (!system.IsFeasible(reference, power)) reference.pop_back();
  }

  const KernelCache kernel(system, power);
  EXPECT_EQ(capacity::GreedyFeasible(kernel, AllLinks(system)), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedAlgorithmAgreement,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace decaylib::sinr
