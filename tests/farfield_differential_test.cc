// Far-field vs dense differential tests over random engine geometries.
//
// Every admission loop the engine runs on the far-field kernel -- Algorithm
// 1 (selected and admitted sets), decay-ordered greedy, scheduling by
// repeated extraction and schedule validation -- must reproduce the dense
// KernelCache run verbatim at epsilon > 0, across the uniform, clustered
// and corridor topologies, decay exponents 2.5 (the std::pow bound path), 3
// and 4, grid occupancy targets 1 and 8, and 512 to 2048 links.
//
// Random instances rarely come near a decision threshold, so an
// adversarial generator moves them there: at noise 0 every affectance is
// beta * f_vv / f_wv, so rescaling beta by 1 / (a set's worst in-sum) puts
// that set on the feasibility threshold within a few ulps, and 0.5 / (the
// largest admission budget) puts Algorithm 1's budget on 1/2.  Beta pushed
// far up makes single pressures clamp in pooled member cells.  Across those
// runs every certified path must fire -- certified accepts and rejects,
// exact fallbacks and budget clamp rejects -- and every decision must still
// equal dense.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <optional>
#include <string>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "scheduling/scheduler.h"
#include "sinr/admission.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::sinr {
namespace {

struct DiffCase {
  const char* topology;
  double alpha;
  int target_per_cell;
  int links;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.topology << " alpha " << c.alpha << " cell " << c.target_per_cell
      << " n " << c.links;
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  std::string alpha = std::to_string(static_cast<int>(info.param.alpha * 10));
  return std::string(info.param.topology) + "_alpha" + alpha + "_cell" +
         std::to_string(info.param.target_per_cell) + "_n" +
         std::to_string(info.param.links);
}

// 3 topologies x 3 exponents x 2 occupancy targets; the link count cycles
// through 512, 1024 and 2048 so each size meets every topology and alpha.
std::vector<DiffCase> Cases() {
  std::vector<DiffCase> cases;
  const std::array<const char*, 3> topologies{"uniform", "clustered",
                                              "corridor"};
  const std::array<double, 3> alphas{2.5, 3.0, 4.0};
  const std::array<int, 3> sizes{512, 1024, 2048};
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      for (const int target : {1, 8}) {
        const std::size_t size = (t + a + (target == 8 ? 1 : 0)) % 3;
        cases.push_back({topologies[t], alphas[a], target, sizes[size]});
      }
    }
  }
  return cases;
}

// One engine-sampled instance family: geometry (points, min-decay pairing)
// and zeta from the spec; beta is the caller's (noise 0 throughout, so
// affectance is linear in beta).
struct Instance {
  engine::ScenarioSpec spec;
  engine::ScenarioGeometry geometry;
  double zeta = 0.0;

  Instance(const char* topology, double alpha, int links, std::uint64_t seed) {
    spec.name = "farfield_diff";
    spec.topology = topology;
    spec.links = links;
    spec.alpha = alpha;
    spec.instances = 1;
    spec.seed = seed;
    spec.kernel_mode = engine::KernelMode::kFarField;
    geometry = engine::BuildGeometry(spec, 0);
    zeta = engine::ConfigureInstance(spec, geometry).zeta();
  }

  LinkSystem System(double beta) const {
    return LinkSystem(*geometry.space, geometry.links, {beta, 0.0});
  }
  FarFieldKernel FarField(double beta, int target_per_cell) const {
    const PowerAssignment power(geometry.links.size(), 1.0);
    return FarFieldKernel(geometry.points, geometry.links, spec.alpha,
                          {beta, 0.0}, power, {1e-3, target_per_cell});
  }
};

// Every engine task the far-field kernel serves, far-field vs dense.
void ExpectTasksMatchDense(const KernelCache& dense, const FarFieldKernel& ff,
                           double zeta) {
  const std::vector<int> all = AllLinks(ff);
  const capacity::Algorithm1Result alg1 = capacity::RunAlgorithm1(dense, zeta);
  const FarFieldAlg1Result ff_alg1 = FarFieldRunAlgorithm1(ff, zeta);
  EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
  EXPECT_EQ(ff_alg1.selected, alg1.selected);
  EXPECT_EQ(FarFieldGreedyFeasible(ff), capacity::GreedyFeasible(dense, all));

  const scheduling::Schedule sched = scheduling::ScheduleLinks(
      dense, zeta, scheduling::Extractor::kAlgorithm1, all);
  const FarFieldSchedule ff_sched = FarFieldScheduleLinks(ff, zeta);
  EXPECT_EQ(ff_sched.slots, sched.slots);
  EXPECT_TRUE(scheduling::ValidateSchedule(dense, sched, all));
  EXPECT_TRUE(FarFieldValidateSchedule(ff, ff_sched, all));
}

// The largest raw in-sum any member of `set` takes from the set at the
// kernel's beta (dense entries, the dense fold order).
double WorstInSum(const KernelCache& dense, const std::vector<int>& set) {
  double worst = 0.0;
  for (int v : set) {
    double total = 0.0;
    for (int w : set) total += dense.AffectanceRaw(w, v);
    worst = std::max(worst, total);
  }
  return worst;
}

// The largest Algorithm 1 budget Out(v) + In(v) any member of X met when
// it was admitted (X in admission order).
double LargestBudget(const KernelCache& dense, const std::vector<int>& X) {
  double largest = 0.0;
  for (std::size_t i = 0; i < X.size(); ++i) {
    double out = 0.0;
    double in = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      out += dense.Affectance(X[i], X[j]);
      in += dense.Affectance(X[j], X[i]);
    }
    largest = std::max(largest, out + in);
  }
  return largest;
}

// The adversarial generator: every threshold-sitting rescale of one
// instance, each compared with dense.  `target_per_cell` sets the
// far-field grid.
void ExpectThresholdRescalesMatchDense(const Instance& inst,
                                       int target_per_cell) {
  const LinkSystem unit = inst.System(1.0);
  const KernelCache unit_dense(unit, UniformPower(unit));
  const std::vector<int> all = AllLinks(unit_dense);
  const std::vector<int> T = capacity::GreedyFeasible(unit_dense, all);
  ASSERT_GE(T.size(), 2u);
  const std::vector<int> X =
      HalfBudgetAdmission(unit_dense, DecayOrder(unit_dense, all),
                          std::nullopt)
          .admitted;
  ASSERT_GE(X.size(), 2u);
  const double worst = WorstInSum(unit_dense, T);
  const double budget = LargestBudget(unit_dense, X);
  ASSERT_GT(worst, 0.0);
  ASSERT_GT(budget, 0.0);

  for (const double side : {1.0 - 1e-12, 1.0 + 1e-12}) {
    SCOPED_TRACE(side < 1.0 ? "just inside" : "just outside");
    // T's worst member on the feasibility threshold.
    {
      const double beta = side / worst;
      const LinkSystem system = inst.System(beta);
      const KernelCache dense(system, UniformPower(system));
      const FarFieldKernel ff = inst.FarField(beta, target_per_cell);
      EXPECT_EQ(ff.IsFeasibleCertified(T), dense.IsFeasible(T));
      EXPECT_EQ(AdmitWhileFeasible(ff, T), AdmitWhileFeasible(dense, T));
      EXPECT_EQ(scheduling::ValidateSchedule(ff, {{T}}, T),
                scheduling::ValidateSchedule(dense, {{T}}, T));
    }
    // X's largest budget on 1/2.
    {
      const double beta = 0.5 * side / budget;
      const LinkSystem system = inst.System(beta);
      const KernelCache dense(system, UniformPower(system));
      const FarFieldKernel ff = inst.FarField(beta, target_per_cell);
      const AdmissionResult near = HalfBudgetAdmission(dense, X, std::nullopt);
      const AdmissionResult far = HalfBudgetAdmission(ff, X, std::nullopt);
      EXPECT_EQ(far.admitted, near.admitted);
      EXPECT_EQ(far.selected, near.selected);
    }
  }
  // Beta far above 1: a candidate's pressure on a distant member clamps to
  // 1, so Algorithm 1's budget rejects it from a pooled member cell.
  {
    const double beta = 1e8;
    const LinkSystem system = inst.System(beta);
    const KernelCache dense(system, UniformPower(system));
    const FarFieldKernel ff = inst.FarField(beta, target_per_cell);
    const AdmissionResult near =
        HalfBudgetAdmission(dense, DecayOrder(dense, all), std::nullopt);
    const AdmissionResult far =
        HalfBudgetAdmission(ff, DecayOrder(ff, all), std::nullopt);
    EXPECT_EQ(far.admitted, near.admitted);
    EXPECT_EQ(far.selected, near.selected);
  }
}

class FarFieldDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(FarFieldDifferentialTest, EngineTasksMatchDense) {
  const DiffCase& c = GetParam();
  const Instance inst(c.topology, c.alpha, c.links,
                      static_cast<std::uint64_t>(9100 + c.links) +
                          static_cast<std::uint64_t>(c.alpha * 10));
  const LinkSystem system = inst.System(1.0);
  const KernelCache dense(system, UniformPower(system));
  ExpectTasksMatchDense(dense, inst.FarField(1.0, c.target_per_cell),
                        inst.zeta);
}

TEST_P(FarFieldDifferentialTest, ThresholdRescalesMatchDense) {
  const DiffCase& c = GetParam();
  const Instance inst(c.topology, c.alpha, c.links,
                      static_cast<std::uint64_t>(9200 + c.links) +
                          static_cast<std::uint64_t>(c.alpha * 10));
  ExpectThresholdRescalesMatchDense(inst, c.target_per_cell);
}

INSTANTIATE_TEST_SUITE_P(Geometries, FarFieldDifferentialTest,
                         ::testing::ValuesIn(Cases()), CaseName);

// The same generator over one instance per topology and occupancy target,
// with the decision counters captured across the whole run: each certified
// path and each fallback must have fired at least once.
TEST(FarFieldDifferentialSuiteTest, EveryCertifiedPathFires) {
  obs::ScopedCounterCapture capture;
  for (const char* topology : {"uniform", "clustered", "corridor"}) {
    for (const int target : {1, 8}) {
      SCOPED_TRACE(std::string(topology) + " cell" + std::to_string(target));
      const Instance inst(topology, 3.0, 512, 9301);
      ExpectThresholdRescalesMatchDense(inst, target);
    }
  }
  std::map<std::string, long long> fired = capture.Take();
  for (const char* name :
       {"sinr.farfield_certified_accepts", "sinr.farfield_certified_rejects",
        "sinr.farfield_exact_fallbacks", "sinr.farfield_clamp_rejects"}) {
    EXPECT_GT(fired[name], 0) << name;
  }
}

}  // namespace
}  // namespace decaylib::sinr
