// E22 -- scaling the kernel layer past dense O(n^2): tiled builds and
// certified far-field affectance aggregation.
//
// A/B of the two kernel tiers on constant-density planar deployments
// (docs/performance.md, "scaling past dense"):
//   (a) n ~ 1k: the dense (tiled) KernelCache build vs the far-field kernel
//       build, and the greedy admission workload dense vs far-field
//       (identical admitted sets, asserted);
//   (b) n ~ 4k: the headline speedups -- dense tiled build vs far-field
//       build, dense greedy vs certified far-field greedy;
//   (c) n ~ 16k: far-field only; the dense matrices would need ~8.6 GB
//       while the far-field kernel stays O(n + cells);
//   (d) engine instances (BuildGeometry, uniform, min-decay pairing) at n
//       and n-large: the tasks kernel_mode=farfield runs -- Algorithm 1,
//       scheduling by repeated extraction, and schedule validation -- with
//       each run's refined cells and exact fallbacks; at n every result is
//       asserted equal to the dense one.
// Certified-decision hit rates (accepts/rejects decided by the pooled
// interval vs exact fallbacks) and the cell-pyramid nodes visited per check
// are read from the sinr.farfield_* obs counters and also land in the BENCH
// record's per-phase counter deltas.  Besides the dense-equality
// assertions, the bench exits 1 unless greedy's visited nodes per check at
// n-xl are at most twice those at n-large: a same-run scaling gate that
// needs no timing.
//
// Flags: --n <links> (default 1024), --n-large <links> (default 4096),
//        --n-xl <links> (default 16384), --epsilon <eps> (default 1e-3),
//        plus the obs::BenchHarness flags --json (write BENCH_E22.json,
//        schema v2), --reps/--warmup/--min-time-ms (sampling control).
//
// Run in a Release build; the committed bench/baselines/BENCH_E22.json was
// recorded with the CI invocation (reduced n, see .github/workflows/ci.yml).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/decay_space.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "obs/registry.h"
#include "scheduling/scheduler.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

using namespace decaylib;

namespace {

constexpr double kAlpha = 3.0;
constexpr sinr::SinrConfig kConfig{1.0, 0.0};

long long CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

// Snapshot of the far-field decision counters, for hit-rate deltas around a
// timed phase.
struct FarFieldCounters {
  long long checks = 0;
  long long accepts = 0;
  long long rejects = 0;
  long long fallbacks = 0;
  long long refined = 0;
  long long visited = 0;

  static FarFieldCounters Snapshot() {
    return {CounterValue("sinr.farfield_admission_checks"),
            CounterValue("sinr.farfield_certified_accepts"),
            CounterValue("sinr.farfield_certified_rejects"),
            CounterValue("sinr.farfield_exact_fallbacks"),
            CounterValue("sinr.farfield_refined_cells"),
            CounterValue("sinr.farfield_cells_visited")};
  }
  FarFieldCounters Delta(const FarFieldCounters& before) const {
    return {checks - before.checks,   accepts - before.accepts,
            rejects - before.rejects, fallbacks - before.fallbacks,
            refined - before.refined, visited - before.visited};
  }
  // Pyramid nodes visited per certified decision (accept, reject or exact
  // fallback).  A greedy admission check settles exactly one; a validated
  // slot settles one per member and walks no pyramid.
  double VisitedPerCheck() const {
    const long long decisions = accepts + rejects + fallbacks;
    return decisions > 0 ? static_cast<double>(visited) /
                               static_cast<double>(decisions)
                         : 0.0;
  }
};

void PrintHitRates(const char* tag, const FarFieldCounters& d) {
  const double denom = d.checks > 0 ? static_cast<double>(d.checks) : 1.0;
  std::printf(
      "%s: %lld certified checks (%.1f%% accept / %.1f%% reject via the "
      "pooled interval, %.1f%% exact fallbacks), %lld cells refined, "
      "%.1f cells visited per check\n",
      tag, d.checks, 100.0 * static_cast<double>(d.accepts) / denom,
      100.0 * static_cast<double>(d.rejects) / denom,
      100.0 * static_cast<double>(d.fallbacks) / denom, d.refined,
      d.VisitedPerCheck());
}

}  // namespace

int main(int argc, char** argv) {
  int n_small = 1024;
  int n_large = 4096;
  int n_xl = 16384;
  double epsilon = 1e-3;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) n_small = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--n-large") == 0) {
      n_large = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--n-xl") == 0) n_xl = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--epsilon") == 0) {
      epsilon = std::atof(argv[i + 1]);
    }
  }
  obs::BenchHarness report("E22", argc, argv);
  if (n_small < 2 || n_large < 2 || n_xl < 2 ||
      !(epsilon >= 0.0 && std::isfinite(epsilon)) || !report.args_ok()) {
    std::fprintf(stderr,
                 "usage: %s [--n <links >= 2>] [--n-large <links >= 2>] "
                 "[--n-xl <links >= 2>] [--epsilon <eps >= 0>] [--json] "
                 "[--reps N] [--warmup N] [--min-time-ms T]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("E22", "Far-field kernel tier",
                "pooling distant cells' decay contributions with a "
                "certified relative error bound turns the O(n^2) kernel "
                "build and the admission loops into near-linear passes");

  const sinr::FarFieldConfig ff_config{epsilon, 8};
  // Cells visited per check by greedy admission at n-large and n-xl: the
  // same-run scaling gate below compares them.
  double large_visited = 0.0;
  double xl_visited = 0.0;

  // ---- (a) small tier: every path, every exactness assertion ----
  {
    std::printf("\n(a) n = %d: dense vs far-field\n\n", n_small);
    geom::Rng rng(61);
    const double box = 4.0 * std::sqrt(static_cast<double>(n_small));
    bench::PlanarDeployment dep(n_small, box, 0.5, 1.5, rng);
    const core::DecaySpace space =
        core::DecaySpace::Geometric(dep.points, kAlpha);
    const sinr::LinkSystem system(space, dep.links, kConfig);

    sinr::KernelCache tiled(system, sinr::UniformPower(system));
    const obs::SampleStats tiled_stats =
        report.Time("build_tiled_small", n_small, [&] {
          tiled = sinr::KernelCache(system, sinr::UniformPower(system));
        });

    std::vector<int> all(static_cast<std::size_t>(n_small));
    std::iota(all.begin(), all.end(), 0);

    sinr::FarFieldKernel ff(dep.points, dep.links, kAlpha, kConfig,
                            sinr::UniformPower(system), ff_config);
    const obs::SampleStats ff_stats =
        report.Time("farfield_build_small", n_small, [&] {
          ff = sinr::FarFieldKernel(dep.points, dep.links, kAlpha, kConfig,
                                    sinr::UniformPower(system), ff_config);
        });

    std::vector<int> dense_greedy;
    const obs::SampleStats gd_stats =
        report.Time("greedy_dense_small", n_small,
                    [&] { dense_greedy = capacity::GreedyFeasible(tiled, all); });
    std::vector<int> ff_greedy;
    const FarFieldCounters before = FarFieldCounters::Snapshot();
    const obs::SampleStats gf_stats =
        report.Time("greedy_farfield_small", n_small,
                    [&] { ff_greedy = capacity::GreedyFeasible(ff, all); });
    const FarFieldCounters delta = FarFieldCounters::Snapshot().Delta(before);
    if (ff_greedy != dense_greedy) {
      std::printf("ERROR: certified far-field greedy diverged from the "
                  "dense admitted set\n");
      return 1;
    }

    bench::Table table({"path", "wall ms", "speedup vs dense", "memory MB"});
    const double mb = 1.0 / (1024.0 * 1024.0);
    table.AddRow({"dense build (tiled)", bench::Fmt(tiled_stats.min_ms, 2),
                  "1.00",
                  bench::Fmt(static_cast<double>(tiled.MemoryBytes()) * mb, 1)});
    table.AddRow({"far-field build", bench::Fmt(ff_stats.min_ms, 2),
                  bench::Fmt(tiled_stats.min_ms / ff_stats.min_ms, 2),
                  bench::Fmt(static_cast<double>(ff.MemoryBytes()) * mb, 1)});
    table.Print();
    std::printf("greedy: dense %s ms, far-field %s ms (|S| = %zu, "
                "identical sets)\n",
                bench::Fmt(gd_stats.min_ms, 2).c_str(),
                bench::Fmt(gf_stats.min_ms, 2).c_str(), dense_greedy.size());
    PrintHitRates("hit rates", delta);
  }

  // ---- (b) large tier: the headline dense-vs-far-field speedups ----
  {
    std::printf("\n(b) n = %d: dense vs certified far-field (epsilon = %g)\n\n",
                n_large, epsilon);
    geom::Rng rng(62);
    const double box = 4.0 * std::sqrt(static_cast<double>(n_large));
    bench::PlanarDeployment dep(n_large, box, 0.5, 1.5, rng);
    const core::DecaySpace space =
        core::DecaySpace::Geometric(dep.points, kAlpha);
    const sinr::LinkSystem system(space, dep.links, kConfig);

    sinr::KernelCache dense(system, sinr::UniformPower(system));
    const obs::SampleStats dense_stats =
        report.Time("build_tiled_large", n_large, [&] {
          dense = sinr::KernelCache(system, sinr::UniformPower(system));
        });

    sinr::FarFieldKernel ff(dep.points, dep.links, kAlpha, kConfig,
                            sinr::UniformPower(system), ff_config);
    const obs::SampleStats ff_stats =
        report.Time("farfield_build_large", n_large, [&] {
          ff = sinr::FarFieldKernel(dep.points, dep.links, kAlpha, kConfig,
                                    sinr::UniformPower(system), ff_config);
        });

    std::vector<int> all(static_cast<std::size_t>(n_large));
    std::iota(all.begin(), all.end(), 0);
    std::vector<int> dense_greedy;
    const obs::SampleStats gd_stats =
        report.Time("greedy_dense_large", n_large,
                    [&] { dense_greedy = capacity::GreedyFeasible(dense, all); });
    std::vector<int> ff_greedy;
    const FarFieldCounters before = FarFieldCounters::Snapshot();
    const obs::SampleStats gf_stats =
        report.Time("greedy_farfield_large", n_large,
                    [&] { ff_greedy = capacity::GreedyFeasible(ff, all); });
    const FarFieldCounters delta = FarFieldCounters::Snapshot().Delta(before);
    if (ff_greedy != dense_greedy) {
      std::printf("ERROR: certified far-field greedy diverged from the "
                  "dense admitted set at n = %d\n", n_large);
      return 1;
    }

    const double mb = 1.0 / (1024.0 * 1024.0);
    bench::Table table({"stage", "dense ms", "far-field ms", "speedup"});
    table.AddRow({"kernel build", bench::Fmt(dense_stats.min_ms, 2),
                  bench::Fmt(ff_stats.min_ms, 2),
                  bench::Fmt(dense_stats.min_ms / ff_stats.min_ms, 1)});
    table.AddRow({"greedy admission", bench::Fmt(gd_stats.min_ms, 2),
                  bench::Fmt(gf_stats.min_ms, 2),
                  bench::Fmt(gd_stats.min_ms / gf_stats.min_ms, 1)});
    // The acceptance headline: an admission-heavy workload pays build +
    // admission on both sides (the dense matrix is useless until built).
    const double dense_e2e = dense_stats.min_ms + gd_stats.min_ms;
    const double ff_e2e = ff_stats.min_ms + gf_stats.min_ms;
    table.AddRow({"build + admission", bench::Fmt(dense_e2e, 2),
                  bench::Fmt(ff_e2e, 2), bench::Fmt(dense_e2e / ff_e2e, 1)});
    table.Print();
    std::printf("|S| = %zu (identical sets); memory: dense %s MB, "
                "far-field %s MB\n",
                dense_greedy.size(),
                bench::Fmt(static_cast<double>(dense.MemoryBytes()) * mb, 1).c_str(),
                bench::Fmt(static_cast<double>(ff.MemoryBytes()) * mb, 1).c_str());
    PrintHitRates("hit rates", delta);
    large_visited = delta.VisitedPerCheck();
    std::printf("occupied sender cells: %d (visited per check / cells = "
                "%.3f)\n",
                ff.SenderCells(), large_visited / ff.SenderCells());
  }

  // ---- (c) xl tier: past the dense wall ----
  {
    std::printf("\n(c) n = %d: far-field only (dense matrices would need "
                "%.1f GB)\n\n",
                n_xl,
                4.0 * 8.0 * static_cast<double>(n_xl) *
                    static_cast<double>(n_xl) / (1024.0 * 1024.0 * 1024.0));
    geom::Rng rng(63);
    const double box = 4.0 * std::sqrt(static_cast<double>(n_xl));
    bench::PlanarDeployment dep(n_xl, box, 0.5, 1.5, rng);
    const sinr::PowerAssignment uniform(static_cast<std::size_t>(n_xl), 1.0);

    sinr::FarFieldKernel ff(dep.points, dep.links, kAlpha, kConfig, uniform,
                            ff_config);
    const obs::SampleStats ff_stats =
        report.Time("farfield_build_xl", n_xl, [&] {
          ff = sinr::FarFieldKernel(dep.points, dep.links, kAlpha, kConfig,
                                    uniform, ff_config);
        });

    std::vector<int> ff_greedy;
    const FarFieldCounters before = FarFieldCounters::Snapshot();
    const obs::SampleStats gf_stats =
        report.Time("greedy_farfield_xl", n_xl, [&] {
          ff_greedy = capacity::GreedyFeasible(ff, sinr::AllLinks(ff));
        });
    const FarFieldCounters delta = FarFieldCounters::Snapshot().Delta(before);

    std::printf("far-field build %s ms, greedy %s ms, |S| = %zu, kernel "
                "memory %.1f MB\n",
                bench::Fmt(ff_stats.min_ms, 2).c_str(),
                bench::Fmt(gf_stats.min_ms, 2).c_str(), ff_greedy.size(),
                static_cast<double>(ff.MemoryBytes()) / (1024.0 * 1024.0));
    PrintHitRates("hit rates", delta);
    xl_visited = delta.VisitedPerCheck();
    std::printf("occupied sender cells: %d (visited per check / cells = "
                "%.3f)\n",
                ff.SenderCells(), xl_visited / ff.SenderCells());
  }

  // ---- (d) engine instances: the far-field task set end to end ----
  {
    std::printf("\n(d) engine instances (uniform, epsilon = %g): Algorithm 1, "
                "schedule, validate\n\n",
                epsilon);
    bench::Table table({"phase", "n", "far-field ms", "dense ms",
                        "refined cells", "exact fallbacks", "visited/check"});
    for (const bool small : {true, false}) {
      const int n = small ? n_small : n_large;
      const std::string tag = small ? "_small" : "_large";
      engine::ScenarioSpec spec;
      spec.name = "e22_engine";
      spec.topology = "uniform";
      spec.links = n;
      spec.instances = 1;
      spec.seed = 64;
      spec.kernel_mode = engine::KernelMode::kFarField;
      spec.farfield_epsilon = epsilon;
      const engine::ScenarioGeometry geometry = engine::BuildGeometry(spec, 0);
      const engine::ScenarioInstance instance =
          engine::ConfigureInstance(spec, geometry);
      const sinr::LinkSystem& system = instance.system();
      const double zeta = instance.zeta();
      const sinr::FarFieldKernel ff(geometry.points, geometry.links, spec.alpha,
                                    system.config(), instance.power(),
                                    ff_config);
      const std::vector<int> all = sinr::AllLinks(ff);

      // One untimed run per phase: the results to check and the per-run
      // counters (deterministic, so the timed reps repeat them).
      const auto counted = [](auto&& fn) {
        obs::ScopedCounterCapture capture;
        auto result = fn();
        std::map<std::string, long long> d = capture.Take();
        FarFieldCounters delta;
        delta.accepts = d["sinr.farfield_certified_accepts"];
        delta.rejects = d["sinr.farfield_certified_rejects"];
        delta.fallbacks = d["sinr.farfield_exact_fallbacks"];
        delta.refined = d["sinr.farfield_refined_cells"];
        delta.visited = d["sinr.farfield_cells_visited"];
        return std::make_pair(std::move(result), delta);
      };
      const auto [alg1, alg1_counts] =
          counted([&] { return sinr::FarFieldRunAlgorithm1(ff, zeta); });
      const auto [sched, sched_counts] =
          counted([&] { return sinr::FarFieldScheduleLinks(ff, zeta); });
      const auto [valid, valid_counts] = counted(
          [&] { return sinr::FarFieldValidateSchedule(ff, sched, all); });
      if (!valid) {
        std::printf("ERROR: far-field schedule failed validation at n = %d\n",
                    n);
        return 1;
      }

      double dense_alg1_ms = 0.0;
      double dense_sched_ms = 0.0;
      double dense_valid_ms = 0.0;
      if (small) {
        const sinr::KernelCache dense(system, instance.power());
        capacity::Algorithm1Result dense_alg1;
        dense_alg1_ms = report.Time("engine_alg1_dense" + tag, n, [&] {
          dense_alg1 = capacity::RunAlgorithm1(dense, zeta);
        }).min_ms;
        scheduling::Schedule dense_sched;
        dense_sched_ms = report.Time("engine_schedule_dense" + tag, n, [&] {
          dense_sched = scheduling::ScheduleLinks(
              dense, zeta, scheduling::Extractor::kAlgorithm1, all);
        }).min_ms;
        bool dense_valid = false;
        dense_valid_ms = report.Time("engine_validate_dense" + tag, n, [&] {
          dense_valid = scheduling::ValidateSchedule(dense, dense_sched, all);
        }).min_ms;
        if (alg1.selected != dense_alg1.selected ||
            alg1.admitted != dense_alg1.admitted ||
            sched.slots != dense_sched.slots || !dense_valid) {
          std::printf("ERROR: far-field engine tasks diverged from dense at "
                      "n = %d\n",
                      n);
          return 1;
        }
      }

      const double alg1_ms = report.Time("engine_alg1_farfield" + tag, n, [&] {
        (void)sinr::FarFieldRunAlgorithm1(ff, zeta);
      }).min_ms;
      const double sched_ms =
          report.Time("engine_schedule_farfield" + tag, n, [&] {
            (void)sinr::FarFieldScheduleLinks(ff, zeta);
          }).min_ms;
      const double valid_ms =
          report.Time("engine_validate_farfield" + tag, n, [&] {
            (void)sinr::FarFieldValidateSchedule(ff, sched, all);
          }).min_ms;

      const auto row = [&](const char* phase, double ff_ms, double dense_ms,
                           const FarFieldCounters& c) {
        table.AddRow({phase, std::to_string(n), bench::Fmt(ff_ms, 2),
                      small ? bench::Fmt(dense_ms, 2) : "-",
                      std::to_string(c.refined), std::to_string(c.fallbacks),
                      bench::Fmt(c.VisitedPerCheck(), 1)});
      };
      row("Algorithm 1", alg1_ms, dense_alg1_ms, alg1_counts);
      row("schedule", sched_ms, dense_sched_ms, sched_counts);
      row("validate", valid_ms, dense_valid_ms, valid_counts);
      std::printf("n = %d: |S| = %zu of |X| = %zu, %d slots%s\n", n,
                  alg1.selected.size(), alg1.admitted.size(), sched.Length(),
                  small ? " (identical to dense)" : "");
    }
    std::printf("\n");
    table.Print();
  }

  // Same-run scaling gate, free of timing: a check's pyramid walk grows
  // with log n, so 4x the links may at most double the cells it visits (a
  // walk over every occupied cell grows ~4x).
  std::printf("\nvisited per check: %.1f at n = %d, %.1f at n = %d "
              "(gate: <= 2x)\n",
              large_visited, n_large, xl_visited, n_xl);
  if (xl_visited > 2.0 * large_visited) {
    std::printf("ERROR: cells visited per check grew %.2fx from n = %d to "
                "n = %d\n",
                xl_visited / large_visited, n_large, n_xl);
    return 1;
  }

  std::printf(
      "\nExpected shape: the build + admission row clears 5x over dense at "
      "n ~ 4k (growing\nwith n), with certified decisions deciding almost "
      "every check and exact fallbacks\nrare; tier (c) runs where the dense "
      "kernel cannot allocate; in (d) validation refines\nno cell on "
      "uniform instances.\n");
  return report.Close();
}
