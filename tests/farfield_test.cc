// Property tests for the certified far-field kernel (sinr/farfield.h).
//
// Three contracts under test:
//  * the certificate itself -- for every member of a set, the pyramid
//    walk's raw in-sum interval (the one set feasibility decides from)
//    brackets the exact fold, with only the roots pooled and fully
//    opened, across topologies, seeds, decay exponents and subset shapes;
//  * exactness anchoring -- the far-field exact expressions are
//    bit-identical to the dense KernelCache entries over the same
//    geometry (EXPECT_EQ on doubles, not EXPECT_NEAR), and every admission
//    loop run on the far-field kernel reproduces its dense run verbatim --
//    at epsilon = 0, and at epsilon > 0 even on inputs built to drive the
//    node-opening, exact-fallback, clamped-cell and separation knife-edge
//    paths;
//  * engine integration -- kernel_mode = kFarField at epsilon = 0 yields
//    the dense batch and sweep signatures bit-for-bit, at epsilon > 0 every
//    aggregate equals dense and a 1024-link engine
//    instance's Algorithm 1, schedule and validation equal the dense
//    results, a far-field-only task set
//    never fills the geometry's decay matrix, and ValidateScenarioSpec
//    rejects far-field specs whose decay is not a pure distance function.
#include "sinr/farfield.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "engine/batch_runner.h"
#include "engine/report.h"
#include "engine/scenario.h"
#include "geom/grid.h"
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

// Stop rules for FarFieldAccumulator::MemberInRawBounds: the roots only,
// and every internal node opened.
bool RootsOnly(const FarFieldKernel::Interval&) { return true; }
bool FullyOpened(const FarFieldKernel::Interval&) { return false; }

// The interval IsFeasibleCertified decides member v of S from, under `done`.
FarFieldKernel::Interval MemberBounds(
    const FarFieldKernel& ff, const std::vector<int>& S, int v,
    bool (*done)(const FarFieldKernel::Interval&)) {
  FarFieldAccumulator acc(ff);
  for (int w : S) acc.Add(w);
  return acc.MemberInRawBounds(v, done);
}

TEST(FarFieldCertificateTest, MemberBoundsBracketExact) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const double alpha : {2.5, 3.5}) {
      for (const bool clustered : {false, true}) {
        geom::Rng rng(seed);
        const int n = 48;
        Deployment dep = MakeDeployment(n, 28.0, clustered, rng);
        const SinrConfig config{1.0, 0.0};
        const PowerAssignment power(static_cast<std::size_t>(n), 1.0);
        const FarFieldKernel ff(dep.points, dep.links, alpha, config, power,
                                {1e-3, 4});
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " alpha=" + std::to_string(alpha) +
                     " clustered=" + std::to_string(clustered));
        geom::Rng sets(seed * 7 + 1);
        for (int round = 0; round < 6; ++round) {
          const std::vector<int> S = RandomSubset(n, 0.5, sets);
          FarFieldAccumulator acc(ff);
          for (int w : S) acc.Add(w);
          for (int v : S) {
            const double exact = ff.InAffectanceRawExact(S, v);
            for (const auto done : {&RootsOnly, &FullyOpened}) {
              const FarFieldKernel::Interval b = acc.MemberInRawBounds(v, done);
              EXPECT_LE(b.lower, exact);
              EXPECT_GE(b.upper, exact);
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
// the exact fallbacks inside the 1e-9 decision band (Algorithm 1's final
// filter included), and the separation knife edge.  Each input is built to
// land on its path, the path is shown to fire (counter delta or an
// on-the-edge precondition), and the far-field run must still equal the
// dense run.
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

TEST_F(FarFieldFallbackTest, StraddlingIntervalRefinesThenFallsBackToExact) {
  // One link per grid cell over a wide box leaves most sender cells beyond
  // the exact near ring, so every member's interval starts out pooled.
  // Rescaling beta (noise 0: every affectance is beta * f_vv / f_wv) puts a
  // slot's most affected member on the feasibility threshold within a few
  // ulps: its interval straddles the 1e-9 band however far the pyramid is
  // opened, so IsFeasibleCertified opens it to the leaves and then falls
  // back to the exact fold.  Every decision must still equal the dense one.
  geom::Rng rng(71);
  const int n = 200;
  const double alpha = 3.0;
  const Deployment dep = MakeDeployment(n, 60.0, false, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const LinkSystem unit(space, dep.links, {1.0, 0.0});
  const KernelCache unit_dense(unit, UniformPower(unit));
  const std::vector<int> all = AllLinks(n);
  const scheduling::Schedule sched = scheduling::ScheduleLinks(
      unit_dense, 3.0, scheduling::Extractor::kAlgorithm1, all);

  // The most affected member of any multi-link slot.
  const auto in_sum = [&](const std::vector<int>& slot, int v) {
    double total = 0.0;
    for (int w : slot) total += unit_dense.AffectanceRaw(w, v);
    return total;
  };
  std::size_t worst_slot = 0;
  int worst = -1;
  double worst_sum = 0.0;
  for (std::size_t s = 0; s < sched.slots.size(); ++s) {
    if (sched.slots[s].size() < 2) continue;
    for (int v : sched.slots[s]) {
      if (in_sum(sched.slots[s], v) > worst_sum) {
        worst_slot = s;
        worst = v;
        worst_sum = in_sum(sched.slots[s], v);
      }
    }
  }
  ASSERT_GE(worst, 0);
  ASSERT_GT(worst_sum, 0.0);
  ASSERT_LE(worst_sum, 1.0);  // the slot is feasible at beta = 1

  const SinrConfig config{1.0 / worst_sum, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                          UniformPower(system), {1e-3, 1});
  const std::vector<int>& slot = sched.slots[worst_slot];
  double fold = 0.0;
  for (int w : slot) fold += dense.AffectanceRaw(w, worst);
  ASSERT_LT(std::abs(fold - 1.0), 1e-12);  // on the threshold

  const long long fallbacks = Count("sinr.farfield_exact_fallbacks");
  EXPECT_EQ(ff.IsFeasibleCertified(slot), dense.IsFeasible(slot));
  EXPECT_GT(Count("sinr.farfield_exact_fallbacks") - fallbacks, 0);
  for (const std::vector<int>& other : sched.slots) {
    EXPECT_EQ(ff.IsFeasibleCertified(other), dense.IsFeasible(other));
  }
  EXPECT_EQ(scheduling::ValidateSchedule(ff, sched, all),
            scheduling::ValidateSchedule(dense, sched, all));
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

// Hand-placed links beside a 20 x 20 lattice of short filler links
// (spacing 5, receiver on the lattice point, sender 0.5 to its right): at
// one link per cell the fillers keep the kernel's grid cells ~5 wide, so a
// link a few dozen units long reaches past the exact near ring.
struct LatticeDeployment {
  std::vector<geom::Vec2> points;
  std::vector<Link> links;

  int Add(geom::Vec2 s, geom::Vec2 r) {
    points.push_back(s);
    points.push_back(r);
    const int id = static_cast<int>(links.size());
    links.push_back({2 * id, 2 * id + 1});
    return id;
  }
  void AddFillers() {
    for (int i = 0; i < 20; ++i) {
      for (int j = 0; j < 20; ++j) {
        const geom::Vec2 r{5.0 * i, 5.0 * j};
        Add(r + geom::Vec2{0.5, 0.0}, r);
      }
    }
  }
  std::vector<geom::Vec2> Endpoints(bool senders) const {
    std::vector<geom::Vec2> out;
    for (const Link& l : links) {
      out.push_back(
          points[static_cast<std::size_t>(senders ? l.sender : l.receiver)]);
    }
    return out;
  }
};

// The kernel's pooling geometry rebuilt from outside at one link per cell:
// the near ring radius of the grid over `pts`, the links sharing a cell
// with link `id`, and the distance range from p to their tight box.
struct CellRange {
  double ring = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<int> members;
};

CellRange RangeToCellOf(const std::vector<geom::Vec2>& pts, int id,
                        geom::Vec2 p, double alpha) {
  std::vector<int> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  const geom::UniformGrid grid(pts, ids, 1);
  CellRange out;
  out.ring =
      grid.CellSize() * std::sqrt(2.0) / (std::pow(2.0, 1.0 / alpha) - 1.0);
  const std::span<const int> cell =
      grid.CellContents(grid.CellIndex(pts[static_cast<std::size_t>(id)]));
  out.members.assign(cell.begin(), cell.end());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  geom::Vec2 lo{kInf, kInf};
  geom::Vec2 hi{-kInf, -kInf};
  for (int m : out.members) {
    const geom::Vec2 q = pts[static_cast<std::size_t>(m)];
    lo = {std::min(lo.x, q.x), std::min(lo.y, q.y)};
    hi = {std::max(hi.x, q.x), std::max(hi.y, q.y)};
  }
  out.lo = std::hypot(std::max({0.0, lo.x - p.x, p.x - hi.x}),
                      std::max({0.0, lo.y - p.y, p.y - hi.y}));
  out.hi = std::hypot(std::max(p.x - lo.x, hi.x - p.x),
                      std::max(p.y - lo.y, hi.y - p.y));
  return out;
}

TEST(FarFieldCertificateTest, OwnSenderCellNeverPoolsTheLinkItself) {
  // Link v is 60 long, so its own sender cell -- shared with the first
  // filler's sender -- lies far beyond the sender near ring from v's
  // receiver.  v's own entry of its in-sum is 0, so that cell must not
  // count v: pooled, it would add a phantom ~1 to the lower bound and
  // certify the feasible pair {v, filler} infeasible.
  const double alpha = 3.0;
  LatticeDeployment dep;
  const int v = dep.Add({2.5, 0.0}, {2.5, 60.0});
  const int filler = static_cast<int>(dep.links.size());
  dep.AddFillers();
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                          UniformPower(system), {1.0, 1});

  const CellRange own =
      RangeToCellOf(dep.Endpoints(true), v, dep.points[1], alpha);
  ASSERT_EQ(own.members, (std::vector<int>{v, filler}));
  ASSERT_GT(own.lo, own.ring);

  const std::vector<int> S{v, filler};
  const double exact = ff.InAffectanceRawExact(S, v);
  ASSERT_LT(exact, 1.0);
  for (const auto done : {&RootsOnly, &FullyOpened}) {
    const FarFieldKernel::Interval b = MemberBounds(ff, S, v, done);
    EXPECT_LE(b.lower, exact);
    EXPECT_GE(b.upper, exact);
  }
  EXPECT_TRUE(dense.IsFeasible(S));
  EXPECT_TRUE(ff.IsFeasibleCertified(S));
}

TEST(FarFieldCertificateTest, RepeatedIdCountsTwiceAsInDense) {
  // a_w(v) = 1 / 1.2^3 ~ 0.58: {v, w} is feasible, and the dense row fold
  // over {v, w, w} adds w's entry twice, ~1.16 > 1.  Repeating v instead
  // adds only v's own 0 entry and w's in-sum doubles to ~0.14.
  const std::vector<geom::Vec2> points{{0, 0}, {1, 0}, {1, 1.2}, {1, 2.2}};
  const std::vector<Link> links{{0, 1}, {2, 3}};
  const double alpha = 3.0;
  const core::DecaySpace space = core::DecaySpace::Geometric(points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, links, config);
  const KernelCache dense(system, UniformPower(system));
  const std::vector<int> once{0, 1};
  const std::vector<int> twice{0, 1, 1};
  const std::vector<int> self_twice{0, 0, 1};
  ASSERT_TRUE(dense.IsFeasible(once));
  ASSERT_FALSE(dense.IsFeasible(twice));
  ASSERT_TRUE(dense.IsFeasible(self_twice));
  for (const double eps : {1e-3, 0.0}) {
    SCOPED_TRACE(testing::Message() << "epsilon " << eps);
    const FarFieldKernel ff(points, links, alpha, config, UniformPower(system),
                            {eps, 1});
    for (const std::vector<int>& S : {once, twice, self_twice}) {
      EXPECT_EQ(ff.IsFeasibleCertified(S), dense.IsFeasible(S));
    }
  }
}

TEST_F(FarFieldFallbackTest, FinalFilterNeverPoolsTheMemberItself) {
  // Algorithm 1's final filter walks a member's in-sum over the sender
  // pyramid, which holds the member's own sender too.  Link v is 60 long,
  // so its own sender leaf -- shared with the first filler's sender -- lies
  // far beyond the near ring from v's receiver.  Pooled, that leaf would
  // count v's own ~1 into the upper end and the filter could never certify
  // v's in-sum of ~0.998 (the filler's pressure): it must run pairwise and
  // accept v with no exact fallback, as the dense accumulator does.
  const double alpha = 3.0;
  LatticeDeployment dep;
  const int v = dep.Add({2.5, 0.0}, {2.5, 60.0});
  const int filler = static_cast<int>(dep.links.size());
  dep.AddFillers();
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                          UniformPower(system), {1e-3, 1});
  const CellRange own =
      RangeToCellOf(dep.Endpoints(true), v, dep.points[1], alpha);
  ASSERT_EQ(own.members, (std::vector<int>{v, filler}));
  ASSERT_GT(own.lo, own.ring);

  AffectanceAccumulator dense_acc(dense);
  FarFieldAccumulator ff_acc(ff);
  for (const int u : {v, filler}) {
    dense_acc.Add(u);
    ff_acc.Add(u);
  }
  ASSERT_GT(dense_acc.In(v), 0.99);
  ASSERT_TRUE(dense_acc.InWithinOne(v));
  const long long fallbacks = Count("sinr.farfield_exact_fallbacks");
  EXPECT_TRUE(ff_acc.InWithinOne(v));
  EXPECT_EQ(Count("sinr.farfield_exact_fallbacks") - fallbacks, 0);
}

TEST(FarFieldPipelineTest, ClampingFarCellRunsPairwiseAndMatchesDense) {
  // A member receiver cell beyond the exact near ring can still hold a
  // member the candidate's pressure clamps for: member w is a 60-long link
  // whose receiver shares a cell with a filler's, 30 away from candidate
  // v's sender, so a_v(w) = 3600 / 30^2 = 4.  Sum-and-max cell aggregates
  // cannot bound a sum of clamped terms from below there; the cell's
  // clamp-free lower end exceeds 1, so the budget's out-bounds reject v
  // outright (a_v(X) >= 1), as the dense loop does.
  const double alpha = 2.0;
  LatticeDeployment dep;
  const int w = dep.Add({-57.5, 2.5}, {2.5, 2.5});
  const int v = dep.Add({32.5, 2.5}, {32.5, 3.5});
  dep.AddFillers();
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                          UniformPower(system), {1e-3, 1});

  // w's receiver cell lies beyond the receiver near ring from v's sender,
  // and its clamp-free lower end c_w f_ww / d_hi^alpha still exceeds 1.
  const CellRange cell =
      RangeToCellOf(dep.Endpoints(false), w, dep.points[2], alpha);
  ASSERT_GT(cell.lo, cell.ring);
  ASSERT_GT(
      dense.NoiseFactor(w) * dense.LinkDecay(w) / std::pow(cell.hi, alpha),
      1.0);

  // w, then v, then the fillers in decay order.
  std::vector<int> order{w, v};
  for (int u : DecayOrder(dense, AllLinks(system.NumLinks()))) {
    if (u != w && u != v) order.push_back(u);
  }
  const AdmissionResult near = HalfBudgetAdmission(dense, order, std::nullopt);
  const AdmissionResult far = HalfBudgetAdmission(ff, order, std::nullopt);
  ASSERT_GE(near.admitted.size(), 1u);
  EXPECT_EQ(near.admitted[0], w);
  EXPECT_EQ(std::count(near.admitted.begin(), near.admitted.end(), v), 0);
  EXPECT_EQ(far.admitted, near.admitted);
  EXPECT_EQ(far.selected, near.selected);
}

TEST_F(FarFieldFallbackTest, ClampingFarCellRejectsBudgetOutrightAndMatchesDense) {
  // The budget's clamp branch, candidate by candidate: with the 60-long
  // link w of the test above as the only member, every filler whose sender
  // sees w's receiver cell beyond the receiver near ring but within the
  // clamp radius is rejected from that cell alone (its member's pressure
  // clamps to 1, so a_v(X) >= 1 > 1/2).  Every BudgetWithinHalf decision,
  // and the whole admission from {w}, must equal dense.
  const double alpha = 2.0;
  LatticeDeployment dep;
  const int w = dep.Add({-57.5, 2.5}, {2.5, 2.5});
  dep.AddFillers();
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, alpha);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, alpha, config,
                          UniformPower(system), {1e-3, 1});
  const int n = system.NumLinks();

  AffectanceAccumulator dense_acc(dense);
  FarFieldAccumulator ff_acc(ff);
  dense_acc.Add(w);
  ff_acc.Add(w);
  const long long clamps = Count("sinr.farfield_clamp_rejects");
  int accepted = 0;
  int rejected = 0;
  for (int u = 0; u < n; ++u) {
    if (u == w) continue;
    const bool want = dense_acc.BudgetWithinHalf(u);
    EXPECT_EQ(ff_acc.BudgetWithinHalf(u), want) << "candidate " << u;
    ++(want ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(Count("sinr.farfield_clamp_rejects"), clamps);

  std::vector<int> order{w};
  for (int u : DecayOrder(dense, AllLinks(n))) {
    if (u != w) order.push_back(u);
  }
  const AdmissionResult near = HalfBudgetAdmission(dense, order, std::nullopt);
  const AdmissionResult far = HalfBudgetAdmission(ff, order, std::nullopt);
  EXPECT_EQ(far.admitted, near.admitted);
  EXPECT_EQ(far.selected, near.selected);
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

  // Every task (the dense-only ones build the dense kernel, with private
  // link planes, on first use), then the far-field set alone.
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
  // Measured zeta reads every entry, so it fills; the dense kernel reads
  // the link planes, which come from the points and fill nothing.
  engine::ScenarioSpec measured_spec = dense_spec;
  measured_spec.zeta = -1.0;

  obs::SetEnabled(true);
  obs::Counter& fills =
      obs::Registry::Global().GetCounter("core.decay_space_fills");
  obs::Counter& planes =
      obs::Registry::Global().GetCounter("sinr.plane_builds");
  const long long fills_before = fills.value();
  const long long planes_before = planes.value();

  engine::GeometryCache cache;
  const engine::BatchRunner ff_runner(
      {.threads = 2, .tasks = FarFieldTasks(), .geometry = &cache});
  (void)ff_runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
  EXPECT_EQ(fills.value() - fills_before, 0);
  EXPECT_EQ(planes.value() - planes_before, 0);

  // The dense batch reuses the lazy slots: each gains its link planes once,
  // and no matrix fills.
  const engine::BatchRunner cached_runner({.threads = 2, .geometry = &cache});
  const std::vector<engine::ScenarioResult> cached =
      cached_runner.Run(std::vector<engine::ScenarioSpec>{dense_spec});
  EXPECT_EQ(cache.builds(), spec.instances);
  EXPECT_EQ(cache.reuses(), spec.instances);
  EXPECT_EQ(fills.value() - fills_before, 0);
  EXPECT_EQ(planes.value() - planes_before, spec.instances);

  // The measured-zeta batch is the first full reader: each matrix fills on
  // it -- once per slot, not once per reader (two passes run).
  for (int pass = 0; pass < 2; ++pass) {
    (void)cached_runner.Run(std::vector<engine::ScenarioSpec>{measured_spec});
  }
  EXPECT_EQ(fills.value() - fills_before, spec.instances);
  EXPECT_EQ(planes.value() - planes_before, spec.instances);
  obs::SetEnabled(false);

  const std::vector<engine::ScenarioResult> fresh =
      engine::BatchRunner({.threads = 2})
          .Run(std::vector<engine::ScenarioSpec>{dense_spec});
  EXPECT_EQ(engine::AggregateSignature(cached),
            engine::AggregateSignature(fresh));
}

// Every far-field aggregate is a count or a flag (alg1_size, alg1_admitted,
// greedy_size, schedule_slots, the feasibility flags), each from decisions
// that equal dense outside the 1e-9 band, so at epsilon > 0 the aggregates
// equal dense exactly, spec and grid.
void ExpectAggregatesEqual(const engine::ScenarioResult& dense,
                           const engine::ScenarioResult& farfield) {
  ASSERT_EQ(dense.aggregate.size(), farfield.aggregate.size());
  for (std::size_t i = 0; i < dense.aggregate.size(); ++i) {
    const auto& [name, ds] = dense.aggregate[i];
    const auto& [fname, fs] = farfield.aggregate[i];
    EXPECT_EQ(name, fname);
    EXPECT_EQ(ds.count, fs.count) << name;
    EXPECT_EQ(ds.sum, fs.sum) << name;
    EXPECT_EQ(ds.min, fs.min) << name;
    EXPECT_EQ(ds.max, fs.max) << name;
  }
}

TEST(FarFieldEngineTest, CertifiedModeAggregatesEqualDense) {
  engine::ScenarioSpec spec;
  spec.name = "farfield_engine_eps";
  spec.topology = "uniform";
  spec.links = 20;
  spec.instances = 2;
  spec.seed = 778;
  const engine::BatchRunner runner({.threads = 1});
  const std::vector<engine::ScenarioResult> dense =
      runner.Run(std::vector<engine::ScenarioSpec>{spec});
  EXPECT_EQ(engine::ViolationCount(dense), 0);
  const sweep::SweepResult dense_grid =
      RunPooled(FarFieldGrid(engine::KernelMode::kDense, 0.0));
  EXPECT_EQ(sweep::SweepViolationCount(dense_grid), 0);
  for (const double eps : {1e-3, 1e-1}) {
    SCOPED_TRACE(testing::Message() << "epsilon " << eps);
    engine::ScenarioSpec ff_spec = spec;
    ff_spec.kernel_mode = engine::KernelMode::kFarField;
    ff_spec.farfield_epsilon = eps;
    const std::vector<engine::ScenarioResult> farfield =
        runner.Run(std::vector<engine::ScenarioSpec>{ff_spec});
    ASSERT_EQ(dense.size(), farfield.size());
    EXPECT_EQ(engine::ViolationCount(farfield), 0);
    ExpectAggregatesEqual(dense[0], farfield[0]);

    const sweep::SweepResult ff_grid =
        RunPooled(FarFieldGrid(engine::KernelMode::kFarField, eps));
    EXPECT_EQ(sweep::SweepViolationCount(ff_grid), 0);
    ASSERT_EQ(dense_grid.cells.size(), ff_grid.cells.size());
    for (std::size_t c = 0; c < dense_grid.cells.size(); ++c) {
      SCOPED_TRACE(dense_grid.cells[c].cell.spec.name);
      ExpectAggregatesEqual(dense_grid.cells[c].result,
                            ff_grid.cells[c].result);
    }
  }
}

// One engine-generated uniform instance at a size where most sender and
// receiver cells pool (the 20-link engine tests above barely pool at all):
// BuildGeometry's min-decay pairing, the instance's own config and zeta.
struct EngineScaleInstance {
  engine::ScenarioSpec spec;
  engine::ScenarioGeometry geometry;
  engine::ScenarioInstance instance;

  static engine::ScenarioSpec Spec() {
    engine::ScenarioSpec spec;
    spec.name = "farfield_engine_scale";
    spec.topology = "uniform";
    spec.links = 1024;
    spec.instances = 1;
    spec.seed = 4242;
    spec.kernel_mode = engine::KernelMode::kFarField;
    spec.farfield_epsilon = 1e-3;
    return spec;
  }
  EngineScaleInstance()
      : spec(Spec()),
        geometry(engine::BuildGeometry(spec, 0)),
        instance(engine::ConfigureInstance(spec, geometry)) {}

  FarFieldKernel FarField(SinrConfig config) const {
    return FarFieldKernel(geometry.points, geometry.links, spec.alpha, config,
                          instance.power(), {spec.farfield_epsilon});
  }
};

TEST(FarFieldEngineTest, EngineScaleInstanceMatchesDense) {
  const EngineScaleInstance e;
  const LinkSystem& system = e.instance.system();
  const KernelCache dense(system, e.instance.power());
  const FarFieldKernel ff = e.FarField(system.config());
  const double zeta = e.instance.zeta();
  const std::vector<int> all = AllLinks(system.NumLinks());

  const capacity::Algorithm1Result alg1 = capacity::RunAlgorithm1(dense, zeta);
  const FarFieldAlg1Result ff_alg1 = FarFieldRunAlgorithm1(ff, zeta);
  EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
  EXPECT_EQ(ff_alg1.selected, alg1.selected);

  const scheduling::Schedule dense_sched = scheduling::ScheduleLinks(
      dense, zeta, scheduling::Extractor::kAlgorithm1, all);
  const scheduling::Schedule ff_sched = scheduling::ScheduleLinks(
      ff, zeta, scheduling::Extractor::kAlgorithm1, all);
  EXPECT_EQ(ff_sched.slots, dense_sched.slots);
  EXPECT_TRUE(scheduling::ValidateSchedule(dense, dense_sched, all));
  EXPECT_TRUE(scheduling::ValidateSchedule(ff, dense_sched, all));
  for (const std::vector<int>& slot : dense_sched.slots) {
    EXPECT_EQ(ff.IsFeasibleCertified(slot), dense.IsFeasible(slot));
  }
}

TEST_F(FarFieldFallbackTest, PyramidReachesLeafTightnessWithoutFallbacks) {
  // A constant-density deployment at unit link scale, where every
  // admission and budget check certifies from per-cell bounds (near-ring
  // cells pairwise, every other occupied cell pooled).  Candidate queries
  // start from the pyramid roots and open pooled nodes only while the
  // interval straddles the decision band, but leaves inside the exact near
  // ring always run pairwise, so a fully opened interval is that per-cell
  // one: no check may fall back to the exact fold, and a greedy check
  // visits under a quarter of the occupied cells.
  geom::Rng rng(81);
  const int n = 1024;
  const Deployment dep = MakeDeployment(n, 4.0 * std::sqrt(n), false, rng);
  const core::DecaySpace space = core::DecaySpace::Geometric(dep.points, 3.0);
  const SinrConfig config{1.0, 0.0};
  const LinkSystem system(space, dep.links, config);
  const KernelCache dense(system, UniformPower(system));
  const FarFieldKernel ff(dep.points, dep.links, 3.0, config,
                          UniformPower(system), {1e-3, 8});
  const std::vector<int> all = AllLinks(n);

  const long long fallbacks = Count("sinr.farfield_exact_fallbacks");
  const long long checks = Count("sinr.farfield_admission_checks");
  const long long visited = Count("sinr.farfield_cells_visited");
  EXPECT_EQ(capacity::GreedyFeasible(ff, all),
            capacity::GreedyFeasible(dense, all));
  const long long greedy_checks =
      Count("sinr.farfield_admission_checks") - checks;
  ASSERT_GT(greedy_checks, 0);
  EXPECT_LT(static_cast<double>(Count("sinr.farfield_cells_visited") - visited) /
                static_cast<double>(greedy_checks),
            0.25 * ff.SenderCells());
  const capacity::Algorithm1Result alg1 = capacity::RunAlgorithm1(dense, 3.0);
  const FarFieldAlg1Result ff_alg1 = FarFieldRunAlgorithm1(ff, 3.0);
  EXPECT_EQ(ff_alg1.admitted, alg1.admitted);
  EXPECT_EQ(ff_alg1.selected, alg1.selected);
  EXPECT_EQ(Count("sinr.farfield_exact_fallbacks") - fallbacks, 0);
}

TEST_F(FarFieldFallbackTest, FinalFilterInBandCatchesUpAndMatchesDense) {
  // In decay order no member's final a_X(v) comes near 1, so the filter
  // never reaches its exact path.  Admitting a long link v* first, at
  // beta = 4, lets the later members pile up in-affectance on it; the first
  // such v* (longest first) whose final in-sum lies in (1, 2] is rescaled
  // onto 1 -/+ 1e-12 by beta' = 4 / a_X(v*) * (1 -/+ 1e-12) >= 1.  Every
  // budget shrinks with beta (noise 0: affectances are beta * f_vv / f_wv),
  // so the admitted set replayed at beta' is the same X, and v*'s in-sum
  // sits inside the band on either side of 1, where InWithinOne cannot
  // certify it from the bracket and catches its exact fold up.
  const EngineScaleInstance e;
  const double zeta = e.instance.zeta();
  const double wide_beta = 4.0;
  const LinkSystem wide(e.instance.space(), e.geometry.links, {wide_beta, 0.0});
  const KernelCache wide_dense(wide, e.instance.power());
  const std::vector<int> by_decay =
      DecayOrder(wide_dense, AllLinks(wide.NumLinks()));
  int target = -1;
  std::vector<int> X;
  double in_target = 0.0;
  for (auto it = by_decay.rbegin(); it != by_decay.rend() && target < 0;
       ++it) {
    std::vector<int> order{*it};
    for (int u : by_decay) {
      if (u != *it) order.push_back(u);
    }
    X = HalfBudgetAdmission(wide_dense, order, zeta).admitted;
    AffectanceAccumulator acc(wide_dense);
    FeasibilityAccumulator raw(wide_dense);
    for (int v : X) {
      acc.Add(v);
      raw.Add(v);
    }
    if (acc.In(*it) > 1.0 && acc.In(*it) <= 0.5 * wide_beta) {
      ASSERT_EQ(acc.In(*it), raw.InRaw(*it));  // no clamped term
      target = *it;
      in_target = acc.In(*it);
    }
  }
  ASSERT_GE(target, 0);

  for (const bool kept : {true, false}) {
    SCOPED_TRACE(kept ? "just below 1" : "just above 1");
    const SinrConfig config{
        wide_beta / in_target * (kept ? 1.0 - 1e-12 : 1.0 + 1e-12), 0.0};
    const LinkSystem system(e.instance.space(), e.geometry.links, config);
    const KernelCache dense(system, e.instance.power());
    const FarFieldKernel ff = e.FarField(config);
    const AdmissionResult near = HalfBudgetAdmission(dense, X, zeta);
    ASSERT_EQ(near.admitted, X);
    EXPECT_EQ(std::count(near.selected.begin(), near.selected.end(), target),
              kept ? 1 : 0);
    const AdmissionResult far = HalfBudgetAdmission(ff, X, zeta);
    EXPECT_EQ(far.admitted, near.admitted);
    EXPECT_EQ(far.selected, near.selected);

    // The filter alone, over the same members.
    AffectanceAccumulator dense_acc(dense);
    FarFieldAccumulator ff_acc(ff);
    for (int v : X) {
      dense_acc.Add(v);
      ff_acc.Add(v);
    }
    ASSERT_LT(std::abs(dense_acc.In(target) - 1.0), 1e-11);
    const long long fallbacks = Count("sinr.farfield_exact_fallbacks");
    EXPECT_EQ(ff_acc.InWithinOne(target), kept);
    EXPECT_EQ(Count("sinr.farfield_exact_fallbacks") - fallbacks, 1);
    for (int v : X) {
      EXPECT_EQ(ff_acc.InWithinOne(v), dense_acc.InWithinOne(v)) << v;
    }
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
