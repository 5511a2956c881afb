#include "capacity/weighted.h"

#include <gtest/gtest.h>

#include "capacity/exact.h"
#include "core/decay_space.h"
#include "core/metricity.h"
#include "geom/rng.h"
#include "sinr/power.h"

namespace decaylib::capacity {
namespace {

struct Fixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;
  std::vector<double> weights;

  Fixture(int n, double box, std::uint64_t seed) : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{1.0, 0.0}.Rotated(rng.Uniform(0.0, 6.28)));
      links.push_back({2 * i, 2 * i + 1});
      weights.push_back(rng.Uniform(0.5, 10.0));
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

TEST(WeightedTest, TotalWeightSums) {
  const std::vector<double> weights{1.0, 2.0, 4.0};
  const std::vector<int> S{0, 2};
  EXPECT_DOUBLE_EQ(TotalWeight(S, weights), 5.0);
}

TEST(WeightedTest, GreedyIsFeasibleAndCountsWeight) {
  const Fixture fixture(14, 15.0, 1);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto result = WeightedGreedy(kernel, fixture.weights);
  EXPECT_TRUE(system.IsFeasible(result.selected,
                                sinr::UniformPower(system)));
  EXPECT_NEAR(result.weight, TotalWeight(result.selected, fixture.weights),
              1e-12);
  EXPECT_GT(result.weight, 0.0);
}

TEST(WeightedTest, Algorithm1VariantIsFeasible) {
  const Fixture fixture(14, 15.0, 2);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const double zeta = std::max(1.0, core::Metricity(fixture.space));
  const auto result = WeightedAlgorithm1(kernel, fixture.weights, zeta);
  EXPECT_TRUE(system.IsFeasible(result.selected,
                                sinr::UniformPower(system)));
}

TEST(WeightedTest, ExactDominatesHeuristics) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Fixture fixture(12, 10.0, seed);
    const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    const auto exact = ExactWeightedCapacity(kernel, fixture.weights);
    const auto greedy = WeightedGreedy(kernel, fixture.weights);
    const double zeta = std::max(1.0, core::Metricity(fixture.space));
    const auto alg1 = WeightedAlgorithm1(kernel, fixture.weights, zeta);
    EXPECT_GE(exact.weight, greedy.weight - 1e-9) << "seed " << seed;
    EXPECT_GE(exact.weight, alg1.weight - 1e-9) << "seed " << seed;
    EXPECT_TRUE(system.IsFeasible(exact.selected,
                                  sinr::UniformPower(system)));
  }
}

TEST(WeightedTest, UnitWeightsReduceToCardinality) {
  const Fixture fixture(12, 10.0, 7);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const std::vector<double> unit(12, 1.0);
  const auto weighted = ExactWeightedCapacity(kernel, unit);
  const auto unweighted = ExactCapacity(kernel, sinr::AllLinks(system));
  EXPECT_DOUBLE_EQ(weighted.weight,
                   static_cast<double>(unweighted.size()));
}

TEST(WeightedTest, HeavyLinkDominatesWhenConflicting) {
  // Two crossed links that cannot coexist: exact must take the heavier one.
  core::DecaySpace space(4, 1.0);
  space.SetSymmetric(0, 1, 100.0);
  space.SetSymmetric(2, 3, 100.0);
  const sinr::LinkSystem system(space, {{0, 1}, {2, 3}}, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const std::vector<double> weights{1.0, 5.0};
  const auto result = ExactWeightedCapacity(kernel, weights);
  EXPECT_EQ(result.selected, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(result.weight, 5.0);
}

TEST(WeightedTest, ZeroWeightLinksNeverSelected) {
  const Fixture fixture(8, 12.0, 9);
  const sinr::LinkSystem system(fixture.space, fixture.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  std::vector<double> weights(8, 0.0);
  weights[3] = 2.0;
  const auto greedy = WeightedGreedy(kernel, weights);
  EXPECT_EQ(greedy.selected, (std::vector<int>{3}));
  const auto exact = ExactWeightedCapacity(kernel, weights);
  EXPECT_EQ(exact.selected, (std::vector<int>{3}));
}

}  // namespace
}  // namespace decaylib::capacity
