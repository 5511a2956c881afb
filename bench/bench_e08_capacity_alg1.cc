// E8 -- Algorithm 1 vs baselines (Theorem 5).
//
// Uniform-power CAPACITY in bounded-growth decay spaces is zeta^{O(1)}-
// approximable; on the plane, O(alpha^4) -- the first capacity bound
// sub-exponential in alpha.  We sweep alpha on planar deployments:
//  (a) small n with exact OPT: realised ratios for Algorithm 1, the
//      separation-free variant, and the general-metric greedy;
//  (b) larger n: absolute capacities, showing Algorithm 1 stays within a
//      flat factor of greedy while carrying its polynomial guarantee.
#include <cstdio>

#include "bench_util.h"
#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/exact.h"
#include "obs/bench_harness.h"
#include "sinr/power.h"

using namespace decaylib;

int main(int argc, char** argv) {
  obs::BenchHarness report("E08", argc, argv);
  if (!report.args_ok()) return 2;
  bench::Banner("E8", "Algorithm 1 capacity approximation (Theorem 5)",
                "zeta^{O(1)} approximation; O(alpha^4) on the plane, "
                "sub-exponential in alpha");

  {
    bench::WallTimer timer;
    std::printf("\n(a) vs exact OPT, 16 links, mean over 8 seeds\n\n");
    bench::Table table({"alpha", "OPT", "alg1", "half-aff", "greedy",
                        "OPT/alg1", "alpha^4 (ref)", "3^alpha (ref)"});
    for (const double alpha : {1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0}) {
      double opt_acc = 0.0;
      double alg1_acc = 0.0;
      double half_acc = 0.0;
      double greedy_acc = 0.0;
      const int trials = 8;
      for (std::uint64_t seed = 1; seed <= trials; ++seed) {
        geom::Rng rng(seed);
        bench::PlanarDeployment dep(16, 12.0, 0.6, 1.4, rng);
        const core::DecaySpace space =
            core::DecaySpace::Geometric(dep.points, alpha);
        const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
        const sinr::KernelCache kernel(system, sinr::UniformPower(system));
        const auto all = sinr::AllLinks(system);
        opt_acc += static_cast<double>(
            capacity::ExactCapacity(kernel, all).size());
        alg1_acc += static_cast<double>(
            capacity::RunAlgorithm1(kernel, alpha).selected.size());
        half_acc += static_cast<double>(
            capacity::GreedyHalfAffectance(kernel, all).size());
        greedy_acc += static_cast<double>(
            capacity::GreedyFeasible(kernel, all).size());
      }
      table.AddRow(
          {bench::Fmt(alpha, 1), bench::Fmt(opt_acc / trials, 2),
           bench::Fmt(alg1_acc / trials, 2), bench::Fmt(half_acc / trials, 2),
           bench::Fmt(greedy_acc / trials, 2),
           bench::Fmt(opt_acc / std::max(1.0, alg1_acc), 2),
           bench::Fmt(std::pow(alpha, 4.0), 0),
           bench::Fmt(std::pow(3.0, alpha), 0)});
    }
    table.Print();
    report.Record("vs_exact_opt", 16, timer.ElapsedMs());
  }

  {
    bench::WallTimer timer;
    std::printf("\n(b) larger deployments (120 links, no exact OPT)\n\n");
    bench::Table table({"alpha", "alg1", "half-aff", "greedy",
                        "greedy/alg1"});
    for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
      geom::Rng rng(static_cast<std::uint64_t>(alpha * 13));
      bench::PlanarDeployment dep(120, 35.0, 0.5, 1.5, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      const auto all = sinr::AllLinks(system);
      const auto alg1 = capacity::RunAlgorithm1(kernel, alpha).selected;
      const auto half = capacity::GreedyHalfAffectance(kernel, all);
      const auto greedy = capacity::GreedyFeasible(kernel, all);
      table.AddRow({bench::Fmt(alpha, 1),
                    bench::FmtInt(static_cast<long long>(alg1.size())),
                    bench::FmtInt(static_cast<long long>(half.size())),
                    bench::FmtInt(static_cast<long long>(greedy.size())),
                    bench::Fmt(static_cast<double>(greedy.size()) /
                               std::max<std::size_t>(1, alg1.size()), 2)});
    }
    table.Print();
    report.Record("large_deployments", 120, timer.ElapsedMs());
  }

  std::printf(
      "\nExpected shape: OPT/alg1 stays flat (within small constants) "
      "across alpha -- the\npolynomial guarantee -- and far below the "
      "exponential 3^alpha reference that general-\nmetric analyses "
      "predict; the separation test costs little vs the half-affectance "
      "variant.\n");
  return report.Close();
}
