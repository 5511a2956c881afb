// Failure-injection tests: the public API's DL_CHECK preconditions must
// abort loudly on misuse rather than corrupt state (C++ Core Guidelines I.5:
// state preconditions, and here enforce them).
#include <gtest/gtest.h>

#include <vector>

#include "auction/auction.h"
#include "core/decay_space.h"
#include "core/fading.h"
#include "core/metricity.h"
#include "core/numerics.h"
#include "death_test_util.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"
#include "sinr/power.h"
#include "spaces/constructions.h"

namespace decaylib {
namespace {

using DeathTest = ::testing::Test;

TEST(DecaySpaceDeathTest, RejectsNonPositiveDecay) {
  SKIP_IF_DL_CHECK_OFF();
  core::DecaySpace space(3);
  EXPECT_DEATH(space.Set(0, 1, 0.0), "positive");
  EXPECT_DEATH(space.Set(0, 1, -2.0), "positive");
}

TEST(DecaySpaceDeathTest, RejectsDiagonalWrites) {
  SKIP_IF_DL_CHECK_OFF();
  core::DecaySpace space(3);
  EXPECT_DEATH(space.Set(1, 1, 5.0), "diagonal");
}

TEST(DecaySpaceDeathTest, RejectsOutOfRangeIds) {
  SKIP_IF_DL_CHECK_OFF();
  core::DecaySpace space(3);
  EXPECT_DEATH(space.Set(0, 3, 1.0), "range");
  EXPECT_DEATH(space.Set(-1, 0, 1.0), "range");
}

TEST(DecaySpaceDeathTest, RejectsEmptySpace) {
  SKIP_IF_DL_CHECK_OFF();
  EXPECT_DEATH(core::DecaySpace(0), "at least one node");
}

TEST(DecaySpaceDeathTest, GeometricRejectsCoincidentPoints) {
  SKIP_IF_DL_CHECK_OFF();
  const std::vector<geom::Vec2> pts{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DEATH(core::DecaySpace::Geometric(pts, 2.0), "coincident");
}

TEST(QuasiMetricDeathTest, RejectsNonPositiveZeta) {
  SKIP_IF_DL_CHECK_OFF();
  const core::DecaySpace space(3);
  EXPECT_DEATH(core::QuasiMetric(space, 0.0), "positive");
}

TEST(NumericsDeathTest, ZetaFunctionNeedsConvergence) {
  SKIP_IF_DL_CHECK_OFF();
  EXPECT_DEATH(core::RiemannZeta(1.0), "x > 1");
  EXPECT_DEATH(core::RiemannZeta(0.5), "x > 1");
}

TEST(FadingDeathTest, RejectsBadArguments) {
  SKIP_IF_DL_CHECK_OFF();
  const core::DecaySpace space = spaces::UniformSpace(4);
  EXPECT_DEATH(core::FadingValueExact(space, 9, 1.0), "range");
  EXPECT_DEATH(core::FadingValueExact(space, 0, 0.0), "positive");
}

TEST(Theorem2BoundDeathTest, RequiresFadingDimension) {
  SKIP_IF_DL_CHECK_OFF();
  EXPECT_DEATH(core::Theorem2Bound(1.0, 1.0), "below 1");
}

TEST(GraphDeathTest, RejectsSelfLoopsAndBadIds) {
  SKIP_IF_DL_CHECK_OFF();
  graph::Graph g(3);
  EXPECT_DEATH(g.AddEdge(1, 1), "[Ss]elf");
  EXPECT_DEATH(g.AddEdge(0, 5), "range");
}

TEST(LinkSystemDeathTest, RejectsDegenerateLinks) {
  SKIP_IF_DL_CHECK_OFF();
  const core::DecaySpace space = spaces::UniformSpace(4);
  EXPECT_DEATH(sinr::LinkSystem(space, {{0, 0}}, {1.0, 0.0}), "differ");
  EXPECT_DEATH(sinr::LinkSystem(space, {{0, 7}}, {1.0, 0.0}), "range");
}

TEST(LinkSystemDeathTest, RejectsSubUnitBeta) {
  SKIP_IF_DL_CHECK_OFF();
  const core::DecaySpace space = spaces::UniformSpace(4);
  EXPECT_DEATH(sinr::LinkSystem(space, {{0, 1}}, {0.5, 0.0}), "beta");
}

TEST(LinkSystemDeathTest, NoiseFactorNeedsNoiseMargin) {
  SKIP_IF_DL_CHECK_OFF();
  core::DecaySpace space(2, 10.0);
  const sinr::LinkSystem system(space, {{0, 1}}, {2.0, 1.0});
  const sinr::PowerAssignment power{1.0};  // signal 0.1 < beta * noise = 2
  EXPECT_DEATH(system.NoiseFactor(0, power), "threshold");
}

TEST(AuctionDeathTest, CriticalBidNeedsOneBidPerLink) {
  SKIP_IF_DL_CHECK_OFF();
  const core::DecaySpace space = spaces::UniformSpace(4);
  const sinr::LinkSystem system(space, {{0, 1}, {2, 3}}, {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  // A short span: bids[1] would be read out of range.
  const std::vector<double> short_bids{2.0};
  EXPECT_DEATH(auction::CriticalBid(kernel, short_bids, 1), "one bid per link");
  const std::vector<double> long_bids{2.0, 1.0, 3.0};
  EXPECT_DEATH(auction::CriticalBid(kernel, long_bids, 0), "one bid per link");
}

TEST(StarSpaceDeathTest, RejectsDegenerateParameters) {
  SKIP_IF_DL_CHECK_OFF();
  EXPECT_DEATH(spaces::StarSpace(0, 1.0), "leaf");
  EXPECT_DEATH(spaces::StarSpace(3, 0.0), "positive");
}

TEST(WelzlSpaceDeathTest, RejectsLargeEps) {
  SKIP_IF_DL_CHECK_OFF();
  EXPECT_DEATH(spaces::WelzlSpace(4, 0.3), "eps");
}

}  // namespace
}  // namespace decaylib
