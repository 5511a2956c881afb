// The paper's definitions (Sec. 2.1, 2.4) on small instances: the link
// data a LinkSystem holds, and the affectance formula, its clamp, the
// SINR <=> affectance equivalence, K-feasibility nesting and separation as
// KernelCache -- the production path every algorithm runs on -- computes
// them.
#include "sinr/link_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "core/decay_space.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "oracles/oracles.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::sinr {
namespace {

// A small hand-built instance: two parallel links on a line.
//   s0 = node0 at 0, r0 = node1 at 1, s1 = node2 at 10, r1 = node3 at 11.
core::DecaySpace TwoLinkSpace(double alpha) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  return core::DecaySpace::Geometric(pts, alpha);
}

std::vector<Link> TwoLinks() { return {{0, 1}, {2, 3}}; }

// SINR_v >= beta for every v in S: the raw form of feasibility.
bool SinrFeasible(const KernelCache& kernel, std::span<const int> S) {
  return std::all_of(S.begin(), S.end(), [&](int v) {
    return kernel.Sinr(v, S) >= kernel.system().config().beta;
  });
}

// Every link of L is eta-separated from the rest of L.
bool SeparatedSet(const KernelCache& kernel, std::span<const int> L,
                  double eta, double zeta) {
  return std::all_of(L.begin(), L.end(), [&](int v) {
    return kernel.IsSeparatedFrom(v, L, eta, zeta);
  });
}

TEST(LinkSystemTest, LinkAndCrossDecay) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  EXPECT_DOUBLE_EQ(system.LinkDecay(0), 1.0);
  EXPECT_DOUBLE_EQ(system.LinkDecay(1), 1.0);
  EXPECT_DOUBLE_EQ(system.CrossDecay(0, 1), 121.0);  // s0 -> r1 distance 11
  EXPECT_DOUBLE_EQ(system.CrossDecay(1, 0), 81.0);   // s1 -> r0 distance 9
}

TEST(LinkSystemTest, NoiselessNoiseFactorIsBeta) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const PowerAssignment power = UniformPower(system);
  EXPECT_DOUBLE_EQ(system.NoiseFactor(0, power), 2.0);
  EXPECT_DOUBLE_EQ(KernelCache(system, power).NoiseFactor(0), 2.0);
}

TEST(LinkSystemTest, NoiseFactorExceedsBetaWithNoise) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.1});
  const PowerAssignment power = UniformPower(system);
  EXPECT_TRUE(system.CanOvercomeNoise(0, power));
  EXPECT_GT(system.NoiseFactor(0, power), 2.0);
  const KernelCache kernel(system, power);
  EXPECT_TRUE(kernel.CanOvercomeNoise(0));
  EXPECT_GT(kernel.NoiseFactor(0), 2.0);
}

// c_v = beta / (1 - beta N f_vv / P_v) pinned by hand at a noise level
// that matters: beta = 2, N = 1/4, P_v = f_vv = 1 give c_v = 2 / (1/2) = 4
// exactly, on every path that computes it.  At N = 1/2 the signal equals
// beta N, and the strict noise test fails on every path.
TEST(LinkSystemTest, NoiseFactorHandComputed) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {10, 0}, {11, 0}};
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 2.0);
  {
    const SinrConfig config{2.0, 0.25};
    const LinkSystem system(space, TwoLinks(), config);
    const PowerAssignment power = UniformPower(system);
    const KernelCache kernel(system, power);
    const FarFieldKernel ff(pts, TwoLinks(), 2.0, config, power);
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(NoiseFactorNaive(system, v, power), 4.0);
      EXPECT_EQ(system.NoiseFactor(v, power), 4.0);
      EXPECT_EQ(kernel.NoiseFactor(v), 4.0);
      EXPECT_EQ(ff.NoiseFactor(v), 4.0);
    }
  }
  {
    const SinrConfig config{2.0, 0.5};
    const LinkSystem system(space, TwoLinks(), config);
    const PowerAssignment power = UniformPower(system);
    const KernelCache kernel(system, power);
    const FarFieldKernel ff(pts, TwoLinks(), 2.0, config, power);
    for (int v = 0; v < 2; ++v) {
      EXPECT_FALSE(CanOvercomeNoiseNaive(system, v, power));
      EXPECT_FALSE(system.CanOvercomeNoise(v, power));
      EXPECT_FALSE(kernel.CanOvercomeNoise(v));
      EXPECT_FALSE(ff.CanOvercomeNoise(v));
    }
  }
}

TEST(LinkSystemTest, CannotOvercomeHugeNoise) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 10.0});
  const PowerAssignment power = UniformPower(system);
  EXPECT_FALSE(system.CanOvercomeNoise(0, power));
  EXPECT_FALSE(KernelCache(system, power).CanOvercomeNoise(0));
}

TEST(LinkSystemTest, AffectanceSelfIsZero) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  EXPECT_DOUBLE_EQ(kernel.Affectance(0, 0), 0.0);
}

TEST(LinkSystemTest, AffectanceFormula) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  // a_1(0) = min(1, beta * f_00 / f_10) = 2 * 1 / 81.
  EXPECT_NEAR(kernel.Affectance(1, 0), 2.0 / 81.0, 1e-12);
  EXPECT_NEAR(kernel.Affectance(0, 1), 2.0 / 121.0, 1e-12);
}

TEST(LinkSystemTest, AffectanceClampsAtOne) {
  // Two overlapping links: cross decay smaller than link decay.
  core::DecaySpace space(4);
  space.SetSymmetric(0, 1, 100.0);  // long link
  space.SetSymmetric(2, 3, 100.0);
  space.SetSymmetric(0, 3, 1.0);    // s0 right next to r1
  space.SetSymmetric(2, 1, 1.0);
  space.SetSymmetric(0, 2, 50.0);
  space.SetSymmetric(1, 3, 50.0);
  const LinkSystem system(space, TwoLinks(), {1.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  EXPECT_DOUBLE_EQ(kernel.Affectance(1, 0), 1.0);
}

TEST(LinkSystemTest, SinrMatchesHandComputation) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> both{0, 1};
  // Signal 1/1; interference from l1 at r0: 1/81.
  EXPECT_NEAR(kernel.Sinr(0, both), 81.0, 1e-9);
}

TEST(LinkSystemTest, SinrInfiniteWhenAlone) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> only{0};
  EXPECT_TRUE(std::isinf(kernel.Sinr(0, only)));
}

TEST(LinkSystemTest, FeasibilityBothForms) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> both{0, 1};
  EXPECT_TRUE(kernel.IsFeasible(both));
  EXPECT_TRUE(SinrFeasible(kernel, both));
}

// Property sweep: the (unclamped) affectance form and the raw SINR form are
// algebraically equivalent whenever every link can overcome noise.
class AffectanceSinrEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AffectanceSinrEquivalence, AgreeOnRandomInstances) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int links = 6;
  const auto pts = geom::SampleUniform(2 * links, 12.0, 12.0, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  std::vector<Link> link_list;
  for (int i = 0; i < links; ++i) link_list.push_back({2 * i, 2 * i + 1});
  const LinkSystem system(space, link_list, {1.5, 1e-6});
  const KernelCache kernel(system, UniformPower(system));

  // Random subset.
  std::vector<int> S;
  for (int v = 0; v < links; ++v) {
    if (rng.Chance(0.6)) S.push_back(v);
  }
  bool any_noise_fail = false;
  for (int v : S) {
    if (!kernel.CanOvercomeNoise(v)) any_noise_fail = true;
  }
  if (!any_noise_fail) {
    EXPECT_EQ(kernel.IsFeasible(S), SinrFeasible(kernel, S));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffectanceSinrEquivalence,
                         ::testing::Range(1, 26));

TEST(LinkSystemTest, KFeasibilityNests) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> both{0, 1};
  EXPECT_TRUE(kernel.IsKFeasible(both, 1.0));
  // In-affectance is ~2/81 < 1/30, so even 30-feasible.
  EXPECT_TRUE(kernel.IsKFeasible(both, 30.0));
  EXPECT_FALSE(kernel.IsKFeasible(both, 100.0));
}

TEST(LinkSystemTest, LinkLengthAndDistance) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  EXPECT_NEAR(kernel.LinkLength(0, 2.0), 1.0, 1e-12);
  // min over the 4 endpoint pairs: r0 -> s1 has distance 9 (decay 81).
  EXPECT_NEAR(kernel.LinkDistance(0, 1, 2.0), 9.0, 1e-12);
}

TEST(LinkSystemTest, SeparationPredicates) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  const KernelCache kernel(system, UniformPower(system));
  const std::vector<int> other{1};
  // Link length 1, distance 9: separated for eta <= 9 only.
  EXPECT_TRUE(kernel.IsSeparatedFrom(0, other, 8.9, 2.0));
  EXPECT_FALSE(kernel.IsSeparatedFrom(0, other, 9.1, 2.0));
  const std::vector<int> both{0, 1};
  EXPECT_TRUE(SeparatedSet(kernel, both, 5.0, 2.0));
}

TEST(LinkSystemTest, OrderByDecaySorted) {
  core::DecaySpace space(6, 100.0);
  space.Set(0, 1, 9.0);
  space.Set(2, 3, 1.0);
  space.Set(4, 5, 4.0);
  const LinkSystem system(space, {{0, 1}, {2, 3}, {4, 5}}, {1.0, 0.0});
  EXPECT_EQ(system.OrderByDecay(), (std::vector<int>{1, 2, 0}));
}

TEST(LinkSystemTest, AllLinksHelper) {
  const core::DecaySpace space = TwoLinkSpace(2.0);
  const LinkSystem system(space, TwoLinks(), {2.0, 0.0});
  EXPECT_EQ(AllLinks(system), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace decaylib::sinr
