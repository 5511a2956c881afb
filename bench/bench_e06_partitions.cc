// E6 -- The partition lemmas (Appendix B: Lemmas B.1, B.2, B.3, 4.1).
//
// For feasible sets extracted from random planar deployments:
//  * signal strengthening splits a 1-feasible set into q-feasible classes,
//    count <= ceil(2q)^2;
//  * e^2/beta-feasible sets are 1/zeta-separated (Lemma B.2) -- verified;
//  * separation amplification to eta-separated classes, count O((eta tau)^A');
//  * the composition (Lemma 4.1) yields zeta-separated classes, count
//    O(zeta^{2A'}).
// Exits 1, naming the row on stderr, when any row reads "NO" or a B.1
// class count exceeds ceil(2q)^2: the smoke_bench_e06_partitions ctest
// case then checks Lemmas B.1, B.2 and 4.1.
#include <algorithm>
#include <cstdio>
#include <span>

#include "bench_util.h"
#include "capacity/baselines.h"
#include "capacity/partitions.h"
#include "core/metricity.h"
#include "sinr/power.h"

using namespace decaylib;

namespace {

// True iff every link of L is eta-separated from the rest of L.
bool IsSeparatedSet(const sinr::KernelCache& kernel, std::span<const int> L,
                    double eta, double zeta) {
  return std::all_of(L.begin(), L.end(), [&](int v) {
    return kernel.IsSeparatedFrom(v, L, eta, zeta);
  });
}

}  // namespace

int main() {
  int failed_rows = 0;
  bench::Banner("E6", "Partition lemmas B.1/B.2/B.3/4.1",
                "feasible sets split into O(zeta^{2A'}) zeta-separated "
                "classes");

  {
    std::printf("\n(a) Lemma B.1 signal strengthening (|S| from greedy, "
                "alpha = 3)\n\n");
    bench::Table table({"q", "|S|", "classes", "bound ceil(2q)^2",
                        "all q-feasible"});
    geom::Rng rng(1);
    bench::PlanarDeployment dep(40, 22.0, 0.5, 1.2, rng);
    const core::DecaySpace space =
        core::DecaySpace::Geometric(dep.points, 3.0);
    const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    const auto S = capacity::GreedyFeasible(kernel, sinr::AllLinks(system));
    for (const double q : {2.0, 4.0, 8.0, 16.0}) {
      const auto classes = capacity::SignalStrengthen(kernel, S, 1.0, q);
      bool all_ok = true;
      for (const auto& cls : classes) {
        if (!kernel.IsKFeasible(cls, q)) all_ok = false;
      }
      const double bound = std::ceil(2.0 * q) * std::ceil(2.0 * q);
      if (!all_ok || static_cast<double>(classes.size()) > bound) {
        std::fprintf(stderr,
                     "E6 FAIL (a) q = %g: %zu classes (bound %g), "
                     "all q-feasible %s\n",
                     q, classes.size(), bound, all_ok ? "yes" : "NO");
        ++failed_rows;
      }
      table.AddRow({bench::Fmt(q, 0),
                    bench::FmtInt(static_cast<long long>(S.size())),
                    bench::FmtInt(static_cast<long long>(classes.size())),
                    bench::Fmt(bound, 0), all_ok ? "yes" : "NO"});
    }
    table.Print();
  }

  {
    std::printf("\n(b) Lemma B.2 + B.3 + 4.1 across alpha (zeta = "
                "metricity)\n\n");
    bench::Table table({"alpha", "zeta", "|S|", "B.2 separated",
                        "4.1 classes", "all zeta-separated", "zeta^2 (ref)"});
    for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
      geom::Rng rng(static_cast<std::uint64_t>(alpha * 10));
      bench::PlanarDeployment dep(40, 22.0, 0.5, 1.2, rng);
      const core::DecaySpace space =
          core::DecaySpace::Geometric(dep.points, alpha);
      const double zeta = std::max(1.0, core::Metricity(space));
      const sinr::LinkSystem system(space, dep.links, {1.0, 0.0});
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));

      // Lemma B.2 check on an e^2-feasible greedy set.
      std::vector<int> strong;
      for (int v = 0; v < system.NumLinks(); ++v) {
        strong.push_back(v);
        if (!kernel.IsKFeasible(strong, std::exp(2.0))) strong.pop_back();
      }
      const bool b2 = IsSeparatedSet(kernel, strong, 1.0 / zeta, zeta);

      const auto S = capacity::GreedyFeasible(kernel, sinr::AllLinks(system));
      const auto classes = capacity::Lemma41Partition(kernel, S, zeta);
      bool all_sep = true;
      for (const auto& cls : classes) {
        if (!IsSeparatedSet(kernel, cls, zeta, zeta)) all_sep = false;
      }
      if (!b2 || !all_sep) {
        std::fprintf(stderr,
                     "E6 FAIL (b) alpha = %g: B.2 separated %s, all "
                     "zeta-separated %s\n",
                     alpha, b2 ? "yes" : "NO", all_sep ? "yes" : "NO");
        ++failed_rows;
      }
      table.AddRow({bench::Fmt(alpha, 1), bench::Fmt(zeta),
                    bench::FmtInt(static_cast<long long>(S.size())),
                    b2 ? "yes" : "NO",
                    bench::FmtInt(static_cast<long long>(classes.size())),
                    all_sep ? "yes" : "NO", bench::Fmt(zeta * zeta, 1)});
    }
    table.Print();
  }

  std::printf(
      "\nExpected shape: class counts far below the ceil(2q)^2 worst case "
      "and polynomial in zeta;\nevery class certified q-feasible / "
      "zeta-separated; B.2 separation holds on all rows.\n");
  if (failed_rows > 0) {
    std::fprintf(stderr, "E6 FAIL: %d row(s) violate a partition lemma\n",
                 failed_rows);
    return 1;
  }
  return 0;
}
