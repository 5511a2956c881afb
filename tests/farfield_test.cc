// Property tests for the certified far-field kernel (sinr/farfield.h).
//
// Three contracts under test:
//  * the certificate itself -- for every queried in-affectance sum,
//    CertifiedInAffectance's lower <= exact <= upper with relative width
//    at most epsilon (plus the documented ~3e-9 fp guard), across
//    topologies, seeds, decay exponents and subset shapes;
//  * exactness anchoring -- the far-field exact expressions are
//    bit-identical to the dense KernelCache entries over the same
//    geometry (EXPECT_EQ on doubles, not EXPECT_NEAR), and every admission
//    loop run on the far-field kernel reproduces its dense run verbatim --
//    at epsilon = 0, and at epsilon > 0 even on inputs built to drive the
//    refinement, exact-fallback and separation knife-edge paths;
//  * engine integration -- kernel_mode = kFarField at epsilon = 0 yields
//    the dense batch and sweep signatures bit-for-bit, at epsilon > 0 every
//    aggregate stays within epsilon of dense, a far-field-only task set
//    never fills the geometry's decay matrix, and ValidateScenarioSpec
//    rejects far-field specs whose decay is not a pure distance function.
#include "sinr/farfield.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "geom/rng.h"
#include "obs/registry.h"
#include "scheduling/scheduler.h"
#include "sinr/admission.h"
#include "sinr/kernel.h"
#include "sinr/power.h"
#include "sweep/sweep.h"
#include "sweep/sweep_runner.h"

namespace decaylib::sinr {
namespace {

struct Deployment {
  std::vector<geom::Vec2> points;
  std::vector<Link> links;
};

// Planar constant-density deployment: link i = nodes (2i, 2i+1), receiver a
// short random offset from the sender.  `clustered` concentrates senders
// around a few hotspots, the far-field grid's worst case (many occupied
// cells near, few far).
Deployment MakeDeployment(int n, double box, bool clustered, geom::Rng& rng) {
  Deployment dep;
  std::vector<geom::Vec2> hubs;
  if (clustered) {
    for (int h = 0; h < 4; ++h) {
      hubs.push_back({rng.Uniform(0.0, box), rng.Uniform(0.0, box)});
    }
  }
  for (int i = 0; i < n; ++i) {
    geom::Vec2 s{rng.Uniform(0.0, box), rng.Uniform(0.0, box)};
    if (clustered) {
      const geom::Vec2& hub = hubs[static_cast<std::size_t>(i % 4)];
      s = hub + geom::Vec2{rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)};
    }
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const double len = rng.Uniform(0.5, 1.5);
    dep.points.push_back(s);
    dep.points.push_back(s + geom::Vec2{len, 0.0}.Rotated(angle));
    dep.links.push_back({2 * i, 2 * i + 1});
  }
  return dep;
}

std::vector<int> RandomSubset(int n, double p, geom::Rng& rng) {
  std::vector<int> S;
  for (int v = 0; v < n; ++v) {
    if (rng.Chance(p)) S.push_back(v);
  }
  return S;
}

std::vector<int> AllLinks(int n) {
  std::vector<int> all;
  for (int v = 0; v < n; ++v) all.push_back(v);
  return all;
}

TEST(FarFieldCertificateTest, BoundsBracketExactWithinEpsilon) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const double alpha : {2.5, 3.5}) {
      for (const bool clustered : {false, true}) {
        for (const double eps : {1e-2, 1e-3}) {
          geom::Rng rng(seed);
          const int n = 48;
          Deployment dep = MakeDeployment(n, 28.0, clustered, rng);
          const SinrConfig config{1.0, 0.0};
          const PowerAssignment power(static_cast<std::size_t>(n), 1.0);
          const FarFieldKernel ff(dep.points, dep.links, alpha, config, power,
                                  {eps, 4});
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " alpha=" + std::to_string(alpha) +
                       " clustered=" + std::to_string(clustered) +
                       " eps=" + std::to_string(eps));
          geom::Rng sets(seed * 7 + 1);
          for (int round = 0; round < 6; ++round) {
            const std::vector<int> S = RandomSubset(n, 0.5, sets);
            for (int v = 0; v < n; v += 5) {
              const double exact = ff.InAffectanceRawExact(S, v);
              const auto bounds = ff.CertifiedInAffectance(S, v);
              EXPECT_LE(bounds.lower, exact);
              EXPECT_GE(bounds.upper, exact);
              // Relative width target plus the documented fp guard slack.
              EXPECT_LE(bounds.upper - bounds.lower,
                        eps * bounds.lower + 1e-8 * bounds.upper + 1e-300);
            }
          }
        }
      }
    }
  }
}

TEST(FarFieldCertificateTest, ExactExpressionsMatchDenseBitwise) {
  for (const std::uint64_t seed : {21u, 22u}) {
    for (const double alpha : {2.5, 3.0}) {
      geom::Rng rng(seed);
      const int n = 32;
      Deployment dep = MakeDeployment(n, 20.0, false, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const SinrConfig config{1.0, 0.0};
      const LinkSystem system(space, dep.links, config);
      const KernelCache dense(system, UniformPower(system));
      const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                              UniformPower(system), {1e-3, 4});
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " alpha=" + std::to_string(alpha));
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(ff.LinkDecay(v), dense.LinkDecay(v));
        EXPECT_EQ(ff.CanOvercomeNoise(v), dense.CanOvercomeNoise(v));
        for (int w = 0; w < n; ++w) {
          EXPECT_EQ(ff.AffectanceExact(w, v), dense.AffectanceRaw(w, v));
        }
      }
      geom::Rng sets(seed + 100);
      const std::vector<int> S = RandomSubset(n, 0.6, sets);
      for (int v = 0; v < n; ++v) {
        double fold = 0.0;
        for (int w : S) fold += dense.AffectanceRaw(w, v);
        EXPECT_EQ(ff.InAffectanceRawExact(S, v), fold);
      }
    }
  }
}

TEST(FarFieldPipelineTest, EpsilonZeroBitIdenticalToDense) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    for (const double alpha : {2.5, 3.5}) {
      geom::Rng rng(seed);
      const int n = 40;
      Deployment dep = MakeDeployment(n, 24.0, seed % 2 == 1, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const SinrConfig config{1.0, 0.0};
      const LinkSystem system(space, dep.links, config);
      const KernelCache dense(system, UniformPower(system));
      const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                              UniformPower(system), {0.0, 4});
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " alpha=" + std::to_string(alpha));

      const std::vector<int> all = AllLinks(n);
      EXPECT_EQ(capacity::GreedyFeasible(ff, all),
                capacity::GreedyFeasible(dense, all));

      const double zeta = 3.0;
      const capacity::Algorithm1Result alg1 =
          capacity::RunAlgorithm1(dense, zeta);
      const FarFieldAlg1Result ff_alg1 = FarFieldRunAlgorithm1(ff, zeta);
      EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
      EXPECT_EQ(ff_alg1.selected, alg1.selected);

      const scheduling::Schedule dense_sched = scheduling::ScheduleLinks(
          dense, zeta, scheduling::Extractor::kAlgorithm1, all);
      const FarFieldSchedule ff_sched = FarFieldScheduleLinks(ff, zeta);
      EXPECT_EQ(ff_sched.slots, dense_sched.slots);
      EXPECT_TRUE(FarFieldValidateSchedule(ff, ff_sched, all));
      EXPECT_EQ(scheduling::ScheduleLinks(
                    ff, zeta, scheduling::Extractor::kGreedyFeasible, all)
                    .slots,
                scheduling::ScheduleLinks(
                    dense, zeta, scheduling::Extractor::kGreedyFeasible, all)
                    .slots);
    }
  }
}

TEST(FarFieldPipelineTest, CertifiedDecisionsMatchDenseAtPositiveEpsilon) {
  // Random instances sit nowhere near the 1e-9 decision band, so certified
  // decisions at epsilon > 0 must reproduce the dense sets exactly even
  // though the certified sums are only epsilon-close.
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    geom::Rng rng(seed);
    const int n = 56;
    Deployment dep = MakeDeployment(n, 30.0, false, rng);
    const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
    const SinrConfig config{1.0, 0.0};
    const LinkSystem system(space, dep.links, config);
    const KernelCache dense(system, UniformPower(system));
    const FarFieldKernel ff(dep.points, dep.links, 3.0, config,
                            UniformPower(system), {1e-3, 4});
    SCOPED_TRACE("seed=" + std::to_string(seed));

    const std::vector<int> all = AllLinks(n);
    EXPECT_EQ(capacity::GreedyFeasible(ff, all),
              capacity::GreedyFeasible(dense, all));
    const FarFieldAlg1Result ff_alg1 = FarFieldRunAlgorithm1(ff, 3.0);
    const capacity::Algorithm1Result alg1 = capacity::RunAlgorithm1(dense, 3.0);
    EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
    EXPECT_EQ(ff_alg1.selected, alg1.selected);

    geom::Rng sets(seed + 5);
    for (int round = 0; round < 8; ++round) {
      const std::vector<int> S = RandomSubset(n, 0.4, sets);
      EXPECT_EQ(ff.IsFeasibleCertified(S), dense.IsFeasible(S));
    }
  }
}

// The certified paths a random instance never reaches: adaptive refinement,
// the exact fallbacks inside the 1e-9 decision band, and the separation
// knife edge.  Each input is built to land on its path, the path is shown
// to fire (counter delta or an on-the-edge precondition), and the far-field
// run must still equal the dense run.
class FarFieldFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetEnabled(true); }
  void TearDown() override { obs::SetEnabled(false); }

  static long long Count(const char* name) {
    return obs::Registry::Global().GetCounter(name).value();
  }
};

TEST_F(FarFieldFallbackTest, ThresholdSetsFallBackToExactAndMatchDense) {
  // Noise 0 makes every affectance beta * f_vv / f_wv, so rescaling beta
  // moves a set's in-affectance (or a budget) onto its threshold within a
  // few ulps -- deep inside the 1e-9 band where only the exact fold decides.
  geom::Rng rng(61);
  const int n = 48;
  const double alpha = 3.0;
  const Deployment dep = MakeDeployment(n, 28.0, false, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const LinkSystem unit(space, dep.links, {1.0, 0.0});
  const KernelCache unit_dense(unit, UniformPower(unit));
  const std::vector<int> all = AllLinks(n);
  const auto run_at = [&](double beta, const auto& check) {
    const SinrConfig config{beta, 0.0};
    const LinkSystem system(space, dep.links, config);
    const KernelCache dense(system, UniformPower(system));
    const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                            UniformPower(system), {1e-3, 4});
    check(dense, ff);
  };
  const char* kFallbacks = "sinr.farfield_exact_fallbacks";

  // A feasible set, its most affected member last: at beta = 1 / (that
  // member's in-affectance) the set sits on the feasibility threshold.
  std::vector<int> T = capacity::GreedyFeasible(unit_dense, all);
  ASSERT_GE(T.size(), 3u);
  const auto in_sum = [&](int v) {
    double total = 0.0;
    for (int w : T) total += unit_dense.AffectanceRaw(w, v);
    return total;
  };
  std::iter_swap(std::max_element(T.begin(), T.end(),
                                  [&](int a, int b) {
                                    return in_sum(a) < in_sum(b);
                                  }),
                 T.end() - 1);
  run_at(1.0 / in_sum(T.back()),
         [&](const KernelCache& dense, const FarFieldKernel& ff) {
           long long before = Count(kFallbacks);
           EXPECT_EQ(ff.IsFeasibleCertified(T), dense.IsFeasible(T));
           EXPECT_GT(Count(kFallbacks) - before, 0);
           // The last candidate's in-sum from the rest is the same value.
           before = Count(kFallbacks);
           EXPECT_EQ(AdmitWhileFeasible(ff, T), AdmitWhileFeasible(dense, T));
           EXPECT_GT(Count(kFallbacks) - before, 0);
         });

  // The half-budget loop's admitted set in admission order; at
  // beta = 0.5 / (largest budget any member met), that member's budget sits
  // on the 1/2 threshold.
  const std::vector<int> X =
      HalfBudgetAdmission(unit_dense, DecayOrder(unit_dense, all),
                          std::nullopt)
          .admitted;
  ASSERT_GE(X.size(), 3u);
  double max_budget = 0.0;
  for (std::size_t i = 0; i < X.size(); ++i) {
    double out = 0.0;
    double in = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      out += unit_dense.Affectance(X[i], X[j]);
      in += unit_dense.Affectance(X[j], X[i]);
    }
    max_budget = std::max(max_budget, out + in);
  }
  run_at(0.5 / max_budget,
         [&](const KernelCache& dense, const FarFieldKernel& ff) {
           const long long before = Count(kFallbacks);
           const AdmissionResult far = HalfBudgetAdmission(ff, X, std::nullopt);
           EXPECT_GT(Count(kFallbacks) - before, 0);
           const AdmissionResult near =
               HalfBudgetAdmission(dense, X, std::nullopt);
           EXPECT_EQ(far.admitted, near.admitted);
           EXPECT_EQ(far.selected, near.selected);
         });
}

TEST_F(FarFieldFallbackTest, TinyEpsilonRefinesPooledCellsAndMatchesDense) {
  // One link per grid cell over a wide box leaves most sender cells beyond
  // the exact near ring; an epsilon below the fp guard's own width forces
  // CertifiedInAffectance to refine every pooled cell.
  geom::Rng rng(71);
  const int n = 200;
  const double alpha = 3.0;
  const Deployment dep = MakeDeployment(n, 60.0, false, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                          UniformPower(system), {1e-12, 1});
  const std::vector<int> all = AllLinks(n);

  const scheduling::Schedule dense_sched = scheduling::ScheduleLinks(
      dense, 3.0, scheduling::Extractor::kAlgorithm1, all);
  const scheduling::Schedule ff_sched = scheduling::ScheduleLinks(
      ff, 3.0, scheduling::Extractor::kAlgorithm1, all);
  EXPECT_EQ(ff_sched.slots, dense_sched.slots);
  const long long before = Count("sinr.farfield_refined_cells");
  EXPECT_TRUE(scheduling::ValidateSchedule(ff, ff_sched, all));
  EXPECT_GT(Count("sinr.farfield_refined_cells") - before, 0);
}

TEST_F(FarFieldFallbackTest, SeparationKnifeEdgeMatchesDense) {
  // Two parallel unit links 3 apart: m = MinPairDecay(v, w) = 27 and
  // f_vv = 1.  Solving (zeta/2)^zeta = m / f_vv (1 -/+ 1e-11) puts the
  // pair just on either side of the zeta/2-separation threshold, inside
  // both backends' 1e-9 guard bands, where the decision is the exact pow
  // comparison.
  const std::vector<geom::Vec2> points{{0, 0}, {1, 0}, {0, 3}, {1, 3}};
  const std::vector<Link> links{{0, 1}, {2, 3}};
  const double alpha = 3.0;
  const core::DecaySpace space = core::DecaySpace::Geometric(points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(points, links, alpha, config, UniformPower(system),
                          {1e-3, 4});
  const int w = 0;
  const int v = 1;
  const std::vector<int> order{w, v};
  const double ratio = dense.MinPairDecay(v, w) / dense.LinkDecay(v);
  const auto zeta_for = [](double target) {
    double lo = 2.0;  // (zeta/2)^zeta increases from 1 here
    double hi = 64.0;
    for (int i = 0; i < 200; ++i) {
      const double mid = 0.5 * (lo + hi);
      (std::pow(mid / 2.0, mid) < target ? lo : hi) = mid;
    }
    return lo;
  };
  for (const bool separated : {true, false}) {
    const double zeta =
        zeta_for(ratio * (separated ? 1.0 - 1e-11 : 1.0 + 1e-11));
    SCOPED_TRACE("separated=" + std::to_string(separated));
    const double edge = std::pow(zeta / 2.0, zeta) / ratio;
    ASSERT_LT(std::abs(edge - 1.0), 1e-9);  // inside the guard band
    const AdmissionResult far = HalfBudgetAdmission(ff, order, zeta);
    const AdmissionResult near = HalfBudgetAdmission(dense, order, zeta);
    EXPECT_EQ(far.admitted, near.admitted);
    EXPECT_EQ(far.admitted.size(), separated ? 2u : 1u);
  }
}

TEST(FarFieldPipelineTest, NonUniformPowerFallsBackToExactPaths) {
  geom::Rng rng(51);
  const int n = 30;
  Deployment dep = MakeDeployment(n, 20.0, false, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const PowerAssignment power = PowerLaw(system, 0.5);
  const KernelCache dense(system, power);
  const FarFieldKernel ff(dep.points, dep.links, 3.0, config, power,
                          {1e-3, 4});
  EXPECT_FALSE(ff.HasUniformPower());
  const std::vector<int> all = AllLinks(n);
  EXPECT_EQ(capacity::GreedyFeasible(ff, all),
            capacity::GreedyFeasible(dense, all));
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      EXPECT_EQ(ff.AffectanceExact(w, v), dense.AffectanceRaw(w, v));
    }
  }
}

// The tasks that run on the far-field kernel; a batch of only these never
// needs the dense decay matrix.
std::vector<engine::TaskKind> FarFieldTasks() {
  return {engine::TaskKind::kAlgorithm1, engine::TaskKind::kGreedyBaseline,
          engine::TaskKind::kSchedule};
}

// A links x alpha grid of the far-field tasks for the sweep layer: the
// links axis re-grows the per-worker kernel arenas mid-grid and every cell
// goes through the geometry cache.
sweep::SweepSpec FarFieldGrid(engine::KernelMode mode, double epsilon) {
  sweep::SweepSpec grid;
  grid.name = "farfield_grid";
  grid.base.name = "farfield_grid";
  grid.base.topology = "uniform";
  grid.base.links = 12;
  grid.base.instances = 2;
  grid.base.seed = 9904;
  grid.base.kernel_mode = mode;
  grid.base.farfield_epsilon = epsilon;
  grid.axes = {{"links", {10, 14}}, {"alpha", {2.5, 3.0}}};
  grid.tasks = FarFieldTasks();
  return grid;
}

sweep::SweepResult RunPooled(const sweep::SweepSpec& grid) {
  sweep::SweepConfig config;
  config.threads = 4;
  return sweep::SweepRunner(config).Run(grid);
}

TEST(FarFieldEngineTest, FarFieldModeAtEpsilonZeroMatchesDenseSignature) {
  engine::ScenarioSpec spec;
  spec.name = "farfield_engine";
  spec.topology = "uniform";
  spec.links = 16;
  spec.instances = 2;
  spec.seed = 777;

  engine::ScenarioSpec dense_spec = spec;
  dense_spec.kernel_mode = engine::KernelMode::kDense;
  engine::ScenarioSpec ff_spec = spec;
  ff_spec.kernel_mode = engine::KernelMode::kFarField;
  ff_spec.farfield_epsilon = 0.0;

  // Every task (the dense-only ones fill the matrix and build the dense
  // kernel on first use), then the far-field set alone.
  for (const std::vector<engine::TaskKind>& tasks :
       {engine::AllTasks(), FarFieldTasks()}) {
    SCOPED_TRACE("tasks=" + std::to_string(tasks.size()));
    const engine::BatchRunner dense_runner({.threads = 2, .tasks = tasks});
    engine::GeometryCache cache;  // keeps the far-field geometries to inspect
    const engine::BatchRunner ff_runner(
        {.threads = 2, .tasks = tasks, .geometry = &cache});

    const std::vector<engine::ScenarioResult> dense =
        dense_runner.Run(std::vector<engine::ScenarioSpec>{dense_spec});
    const std::vector<engine::ScenarioResult> farfield =
        ff_runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
    EXPECT_EQ(engine::AggregateSignature(farfield),
              engine::AggregateSignature(dense));

    if (tasks == FarFieldTasks()) {
      // Nothing read an entry: each space is still its points, O(n).
      const long long nodes = 2LL * spec.links;
      cache.Prepare(ff_spec);
      for (int i = 0; i < spec.instances; ++i) {
        const engine::ScenarioGeometry& geometry = cache.Acquire(ff_spec, i);
        EXPECT_LE(geometry.space->MemoryBytes(), 32 * nodes)
            << "instance " << i;
      }
    }
  }

  // The same equality through the sweep layer.
  EXPECT_EQ(sweep::SweepSignature(
                RunPooled(FarFieldGrid(engine::KernelMode::kFarField, 0.0))),
            sweep::SweepSignature(
                RunPooled(FarFieldGrid(engine::KernelMode::kDense, 0.0))));
}

TEST(FarFieldEngineTest, DenseBatchFillsACachedFarFieldGeometryOnce) {
  engine::ScenarioSpec spec;
  spec.name = "farfield_then_dense";
  spec.topology = "uniform";
  spec.links = 16;
  spec.instances = 2;
  spec.seed = 779;
  engine::ScenarioSpec ff_spec = spec;
  ff_spec.kernel_mode = engine::KernelMode::kFarField;
  ff_spec.farfield_epsilon = 0.0;
  engine::ScenarioSpec dense_spec = spec;
  dense_spec.kernel_mode = engine::KernelMode::kDense;
  ASSERT_TRUE(engine::GeometryKeyOf(ff_spec) ==
              engine::GeometryKeyOf(dense_spec));

  obs::SetEnabled(true);
  obs::Counter& fills =
      obs::Registry::Global().GetCounter("core.decay_space_fills");
  const long long fills_before = fills.value();

  engine::GeometryCache cache;
  const engine::BatchRunner ff_runner(
      {.threads = 2, .tasks = FarFieldTasks(), .geometry = &cache});
  (void)ff_runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
  EXPECT_EQ(fills.value() - fills_before, 0);

  // The dense batch reuses the lazy slots and fills each matrix on its
  // first read -- once per slot, not once per reader.
  const engine::BatchRunner cached_runner({.threads = 2, .geometry = &cache});
  const std::vector<engine::ScenarioResult> cached =
      cached_runner.Run(std::vector<engine::ScenarioSpec>{dense_spec});
  EXPECT_EQ(cache.builds(), spec.instances);
  EXPECT_EQ(cache.reuses(), spec.instances);
  EXPECT_EQ(fills.value() - fills_before, spec.instances);
  obs::SetEnabled(false);

  const std::vector<engine::ScenarioResult> fresh =
      engine::BatchRunner({.threads = 2})
          .Run(std::vector<engine::ScenarioSpec>{dense_spec});
  EXPECT_EQ(engine::AggregateSignature(cached),
            engine::AggregateSignature(fresh));
}

// |x - y| within `tol` relative to the larger magnitude (absolute 1e-12
// floor for zeros; equal values cover the +-inf sentinels of empty
// summaries).
bool WithinRelative(double x, double y, double tol) {
  return x == y ||
         std::abs(x - y) <= tol * std::max(std::abs(x), std::abs(y)) + 1e-12;
}

// Every aggregate of `farfield` has the dense count, and its sum, min and
// max agree with dense within the certified `eps`.
void ExpectAggregatesWithinEpsilon(const engine::ScenarioResult& dense,
                                   const engine::ScenarioResult& farfield,
                                   double eps) {
  ASSERT_EQ(dense.aggregate.size(), farfield.aggregate.size());
  for (std::size_t i = 0; i < dense.aggregate.size(); ++i) {
    const auto& [name, ds] = dense.aggregate[i];
    const auto& [fname, fs] = farfield.aggregate[i];
    EXPECT_EQ(name, fname);
    EXPECT_EQ(ds.count, fs.count) << name;
    EXPECT_NEAR(ds.sum, fs.sum, eps * std::max(std::abs(ds.sum), 1.0))
        << name;
    EXPECT_TRUE(WithinRelative(ds.sum, fs.sum, eps)) << name;
    EXPECT_TRUE(WithinRelative(ds.min, fs.min, eps)) << name;
    EXPECT_TRUE(WithinRelative(ds.max, fs.max, eps)) << name;
  }
}

TEST(FarFieldEngineTest, CertifiedModeAggregatesStayWithinEpsilon) {
  constexpr double kEps = 1e-3;
  engine::ScenarioSpec spec;
  spec.name = "farfield_engine_eps";
  spec.topology = "uniform";
  spec.links = 20;
  spec.instances = 2;
  spec.seed = 778;
  const engine::BatchRunner runner({.threads = 1});

  engine::ScenarioSpec ff_spec = spec;
  ff_spec.kernel_mode = engine::KernelMode::kFarField;
  ff_spec.farfield_epsilon = kEps;

  const std::vector<engine::ScenarioResult> dense =
      runner.Run(std::vector<engine::ScenarioSpec>{spec});
  const std::vector<engine::ScenarioResult> farfield =
      runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
  ASSERT_EQ(dense.size(), farfield.size());
  EXPECT_EQ(engine::ViolationCount(dense), 0);
  EXPECT_EQ(engine::ViolationCount(farfield), 0);
  ExpectAggregatesWithinEpsilon(dense[0], farfield[0], kEps);

  // The same bound through the sweep layer, cell by cell.
  const sweep::SweepResult dense_grid =
      RunPooled(FarFieldGrid(engine::KernelMode::kDense, 0.0));
  const sweep::SweepResult ff_grid =
      RunPooled(FarFieldGrid(engine::KernelMode::kFarField, kEps));
  EXPECT_EQ(sweep::SweepViolationCount(dense_grid), 0);
  EXPECT_EQ(sweep::SweepViolationCount(ff_grid), 0);
  ASSERT_EQ(dense_grid.cells.size(), ff_grid.cells.size());
  for (std::size_t c = 0; c < dense_grid.cells.size(); ++c) {
    SCOPED_TRACE(dense_grid.cells[c].cell.spec.name);
    ExpectAggregatesWithinEpsilon(dense_grid.cells[c].result,
                                  ff_grid.cells[c].result, kEps);
  }
}

TEST(FarFieldEngineTest, ValidationRejectsNonDistanceDecay) {
  engine::ScenarioSpec spec;
  spec.name = "bad_farfield";
  spec.topology = "uniform";
  spec.links = 8;
  spec.instances = 1;
  spec.kernel_mode = engine::KernelMode::kFarField;
  EXPECT_TRUE(engine::ValidateScenarioSpec(spec).ok());

  engine::ScenarioSpec shadowed = spec;
  shadowed.sigma_db = 4.0;
  EXPECT_FALSE(engine::ValidateScenarioSpec(shadowed).ok());

  engine::ScenarioSpec powered = spec;
  powered.power_tau = 0.5;
  EXPECT_FALSE(engine::ValidateScenarioSpec(powered).ok());

  engine::ScenarioSpec bad_eps = spec;
  bad_eps.farfield_epsilon = -1.0;
  EXPECT_FALSE(engine::ValidateScenarioSpec(bad_eps).ok());
}

TEST(FarFieldEngineTest, KernelModeNamesRoundTrip) {
  EXPECT_STREQ(engine::KernelModeName(engine::KernelMode::kDense), "dense");
  EXPECT_STREQ(engine::KernelModeName(engine::KernelMode::kFarField),
               "farfield");
  ASSERT_TRUE(engine::ParseKernelMode("dense").has_value());
  EXPECT_EQ(*engine::ParseKernelMode("dense"), engine::KernelMode::kDense);
  ASSERT_TRUE(engine::ParseKernelMode("farfield").has_value());
  EXPECT_EQ(*engine::ParseKernelMode("farfield"),
            engine::KernelMode::kFarField);
  EXPECT_FALSE(engine::ParseKernelMode("sparse").has_value());
}

}  // namespace
}  // namespace decaylib::sinr
