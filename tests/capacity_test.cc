#include "capacity/algorithm1.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "capacity/baselines.h"
#include "capacity/exact.h"
#include "core/decay_space.h"
#include "core/metricity.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "graph/generators.h"
#include "graph/independent_set.h"
#include "oracles/oracles.h"
#include "sinr/power.h"
#include "spaces/constructions.h"

namespace decaylib::capacity {
namespace {

// Random planar instance: `links` short links scattered in a box.
struct Instance {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  Instance(int link_count, double box, double alpha, std::uint64_t seed)
      : space(1) {
    geom::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < link_count; ++i) {
      const geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
      const double angle = rng.Uniform(0.0, 2.0 * M_PI);
      const double len = rng.Uniform(0.5, 1.5);
      pts.push_back(s);
      pts.push_back(s + geom::Vec2{len, 0.0}.Rotated(angle));
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, alpha);
  }
};

TEST(Algorithm1Test, OutputIsFeasible) {
  const Instance inst(20, 25.0, 3.0, 1);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto result = RunAlgorithm1(kernel, 3.0);
  const auto power = sinr::UniformPower(system);
  EXPECT_TRUE(system.IsFeasible(result.selected, power));
  EXPECT_FALSE(result.selected.empty());
}

TEST(Algorithm1Test, SelectedSubsetOfAdmitted) {
  const Instance inst(20, 25.0, 3.0, 2);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto result = RunAlgorithm1(kernel, 3.0);
  const std::set<int> admitted(result.admitted.begin(), result.admitted.end());
  for (int v : result.selected) EXPECT_TRUE(admitted.count(v));
}

TEST(Algorithm1Test, MarkovHalfSurvives) {
  // Eqn. (5) in the Theorem 5 proof: |S| >= |X| / 2.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance inst(24, 20.0, 3.5, seed);
    const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    const auto result = RunAlgorithm1(kernel, 3.5);
    EXPECT_GE(2 * result.selected.size(), result.admitted.size())
        << "seed " << seed;
  }
}

TEST(Algorithm1Test, AdmittedSetIsSeparated) {
  const Instance inst(24, 20.0, 3.0, 3);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const double zeta = 3.0;
  const auto result = RunAlgorithm1(kernel, zeta);
  EXPECT_TRUE(
      sinr::IsSeparatedSetNaive(system, result.admitted, zeta / 2.0, zeta));
}

TEST(Algorithm1Test, EmptyCandidatesGiveEmptyResult) {
  const Instance inst(5, 10.0, 3.0, 4);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const std::vector<int> none;
  const auto result = RunAlgorithm1(kernel, 3.0, none);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_TRUE(result.admitted.empty());
}

TEST(BaselinesTest, GreedyFeasibleIsFeasibleAndMaximal) {
  const Instance inst(18, 18.0, 3.0, 5);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto chosen = GreedyFeasible(kernel, sinr::AllLinks(system));
  const auto power = sinr::UniformPower(system);
  EXPECT_TRUE(system.IsFeasible(chosen, power));
  // Maximality: adding any unchosen link breaks feasibility.
  std::set<int> in(chosen.begin(), chosen.end());
  for (int v = 0; v < system.NumLinks(); ++v) {
    if (in.count(v)) continue;
    std::vector<int> bigger = chosen;
    bigger.push_back(v);
    EXPECT_FALSE(system.IsFeasible(bigger, power)) << "link " << v;
  }
}

TEST(BaselinesTest, HalfAffectanceIsFeasible) {
  const Instance inst(18, 18.0, 3.0, 6);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto chosen = GreedyHalfAffectance(kernel, sinr::AllLinks(system));
  EXPECT_TRUE(system.IsFeasible(chosen, sinr::UniformPower(system)));
}

TEST(BaselinesTest, RandomFeasibleIsFeasible) {
  const Instance inst(18, 18.0, 3.0, 7);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(8);
  const auto all = sinr::AllLinks(system);
  const auto chosen = RandomFeasible(kernel, all, rng);
  EXPECT_TRUE(system.IsFeasible(chosen, sinr::UniformPower(system)));
}

TEST(ExactTest, SmallInstanceDominatesHeuristics) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst(12, 10.0, 3.0, seed);
    const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    const auto opt = ExactCapacity(kernel, sinr::AllLinks(system));
    EXPECT_TRUE(system.IsFeasible(opt, sinr::UniformPower(system)));
    EXPECT_GE(opt.size(),
              GreedyFeasible(kernel, sinr::AllLinks(system)).size());
    EXPECT_GE(opt.size(), RunAlgorithm1(kernel, 3.0).selected.size());
  }
}

TEST(ExactTest, SingleLinkInstance) {
  const Instance inst(1, 5.0, 3.0, 9);
  const sinr::LinkSystem system(inst.space, inst.links, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  EXPECT_EQ(ExactCapacity(kernel, sinr::AllLinks(system)).size(), 1u);
}

// Theorem 3 / Appendix A: on the graph construction, feasible sets (uniform
// power) are exactly independent sets; exact capacity == exact MIS.
class Theorem3Correspondence : public ::testing::TestWithParam<
                                   std::tuple<int, double>> {};

TEST_P(Theorem3Correspondence, CapacityEqualsMaxIndependentSet) {
  const auto [n, p] = GetParam();
  geom::Rng rng(static_cast<std::uint64_t>(n * 31 + static_cast<int>(p * 97)));
  const graph::Graph g = graph::RandomGnp(n, p, rng);
  const auto instance = spaces::Theorem3Instance(g);
  const sinr::LinkSystem system(instance.space,
                                sinr::LinksFromPairs(instance.links),
                                {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto mis = graph::MaxIndependentSet(g);
  const auto cap = ExactCapacity(kernel, sinr::AllLinks(system));
  EXPECT_EQ(cap.size(), mis.size());
  // The MIS itself is feasible as a link set, and any feasible set is
  // independent in g.
  EXPECT_TRUE(system.IsFeasible(mis, sinr::UniformPower(system)));
  EXPECT_TRUE(g.IsIndependentSet(cap));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem3Correspondence,
    ::testing::Combine(::testing::Values(6, 9, 12),
                       ::testing::Values(0.2, 0.5, 0.8)));

TEST(Theorem3PowerControlTest, PowerControlDoesNotHelp) {
  // Theorem 3 holds "even if the algorithm is allowed arbitrary power
  // control": adjacent links block each other under any powers.
  geom::Rng rng(10);
  const graph::Graph g = graph::RandomGnp(8, 0.5, rng);
  const auto instance = spaces::Theorem3Instance(g);
  const sinr::LinkSystem system(instance.space,
                                sinr::LinksFromPairs(instance.links),
                                {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto all = sinr::AllLinks(system);
  const auto pc = ExactCapacityPowerControl(kernel, all);
  const auto mis = graph::MaxIndependentSet(g);
  EXPECT_EQ(pc.size(), mis.size());
}

// Theorem 6: the two-line construction has the same correspondence.
class Theorem6Correspondence : public ::testing::TestWithParam<double> {};

TEST_P(Theorem6Correspondence, CapacityEqualsMaxIndependentSet) {
  const double alpha = GetParam();
  geom::Rng rng(static_cast<std::uint64_t>(alpha * 1000));
  const graph::Graph g = graph::RandomGnp(8, 0.4, rng);
  const auto instance = spaces::Theorem6Instance(g, alpha);
  const sinr::LinkSystem system(instance.space,
                                sinr::LinksFromPairs(instance.links),
                                {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto mis = graph::MaxIndependentSet(g);
  const auto cap = ExactCapacity(kernel, sinr::AllLinks(system));
  EXPECT_EQ(cap.size(), mis.size()) << "alpha=" << alpha;
  EXPECT_TRUE(g.IsIndependentSet(cap));
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, Theorem6Correspondence,
                         ::testing::Values(1.0, 2.0, 3.0));

TEST(Theorem6PowerControlTest, PowerControlDoesNotHelp) {
  geom::Rng rng(11);
  const graph::Graph g = graph::RandomGnp(7, 0.5, rng);
  const auto instance = spaces::Theorem6Instance(g, 2.0);
  const sinr::LinkSystem system(instance.space,
                                sinr::LinksFromPairs(instance.links),
                                {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto all = sinr::AllLinks(system);
  const auto pc = ExactCapacityPowerControl(kernel, all);
  EXPECT_EQ(pc.size(), graph::MaxIndependentSet(g).size());
}

}  // namespace
}  // namespace decaylib::capacity
