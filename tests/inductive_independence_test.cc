#include "capacity/inductive_independence.h"

#include <gtest/gtest.h>

#include "core/decay_space.h"
#include "geom/samplers.h"
#include "sinr/power.h"
#include "spaces/constructions.h"
#include "spaces/samplers.h"

namespace decaylib::capacity {
namespace {

struct Fixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  Fixture(int n, double box, double alpha, std::uint64_t seed) : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{rng.Uniform(0.5, 1.5), 0.0}.Rotated(
                            rng.Uniform(0.0, 6.28)));
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, alpha);
  }
};

TEST(InductiveIndependenceTest, LowerAtMostUpper) {
  const Fixture fixture(16, 15.0, 3.0, 1);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
  const auto result = EstimateInductiveIndependence(
      sinr::KernelCache(system, sinr::UniformPower(system)));
  EXPECT_LE(result.greedy_lower, result.upper + 1e-9);
  EXPECT_GE(result.greedy_lower, 0.0);
  EXPECT_GE(result.arg_link, 0);
}

TEST(InductiveIndependenceTest, SingleLinkIsZero) {
  const Fixture fixture(1, 10.0, 3.0, 2);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
  const auto result = EstimateInductiveIndependence(
      sinr::KernelCache(system, sinr::UniformPower(system)));
  EXPECT_DOUBLE_EQ(result.greedy_lower, 0.0);
  EXPECT_DOUBLE_EQ(result.upper, 0.0);
}

TEST(InductiveIndependenceTest, WellSeparatedLinksHaveTinyRho) {
  // Links 100 units apart with unit lengths: exchanged affectance ~ 1e-6.
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 6; ++i) {
    pts.push_back({i * 100.0, 0.0});
    pts.push_back({i * 100.0 + 1.0, 0.0});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const sinr::LinkSystem system(space, links, {1.0, 0.0});
  const auto result = EstimateInductiveIndependence(
      sinr::KernelCache(system, sinr::UniformPower(system)));
  EXPECT_LT(result.upper, 0.01);
}

TEST(InductiveIndependenceTest, GrowsWithObstruction) {
  // In fading metrics rho is O(1); shadowing (higher zeta) can only raise
  // the exchanged-affectance mass.  Compare clean vs heavily shadowed on
  // the same deployment.
  geom::Rng rng(3);
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 14; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, 25.0), rng.Uniform(0.0, 25.0)};
    pts.push_back(s);
    pts.push_back(s + geom::Vec2{1.0, 0.0});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace clean = core::DecaySpace::Geometric(pts, 3.0);
  geom::Rng shadow(4);
  const core::DecaySpace noisy =
      spaces::ShadowedGeometric(pts, 3.0, 10.0, shadow, true);
  const sinr::LinkSystem sys_clean(clean, links, {1.0, 0.0});
  const sinr::LinkSystem sys_noisy(noisy, links, {1.0, 0.0});
  const auto r_clean = EstimateInductiveIndependence(
      sinr::KernelCache(sys_clean, sinr::UniformPower(sys_clean)));
  const auto r_noisy = EstimateInductiveIndependence(
      sinr::KernelCache(sys_noisy, sinr::UniformPower(sys_noisy)));
  EXPECT_GT(r_noisy.upper, r_clean.upper * 0.5);  // not collapsing
  SUCCEED() << "clean " << r_clean.greedy_lower << " noisy "
            << r_noisy.greedy_lower;
}

TEST(InductiveIndependenceTest, Theorem3InstanceHasLargeRho) {
  // On the hardness construction, a link adjacent to many others exchanges
  // clamped affectance ~ its degree -- rho scales with the graph.
  graph::Graph g(8);
  for (int v = 1; v < 8; ++v) g.AddEdge(0, v);  // star: vertex 0 meets all
  const auto instance = spaces::Theorem3Instance(g);
  const sinr::LinkSystem system(instance.space,
                                sinr::LinksFromPairs(instance.links),
                                {1.0, 0.0});
  const auto result = EstimateInductiveIndependence(
      sinr::KernelCache(system, sinr::UniformPower(system)));
  EXPECT_GE(result.upper, 1.0);
}

}  // namespace
}  // namespace decaylib::capacity
