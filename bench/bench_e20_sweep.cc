// E20 -- sweep engine: parameter-grid throughput over shared kernel arenas.
//
// Two measurements, both gated on bit-identical results:
//
//  1. Grid A/B: one 3-axis sweep (links x alpha x power policy) runs twice,
//     once with per-worker sinr::KernelArena reuse (every instance kernel
//     rebuilt into a warm slab) and once with per-instance allocation.
//     Reports end-to-end cells/sec for both.  Each cell also pays instance
//     generation (space sampling + the O(n^2 log n) link pairing), which
//     bounds how much of the end-to-end time the arena can touch.
//  2. Kernel-rebuild A/B: for the largest cell shape, the same kernel is
//     rebuilt many times through an arena vs freshly constructed -- the
//     isolated cost of exactly what the arena replaces (alloc + clear vs
//     overwrite-in-place), reported as rebuilds/sec.
//  3. Instance-generation A/B: a power/beta-only grid at n = 2 * gen-links
//     nodes isolates what a cell pays *before* any kernel or task runs --
//     space sampling + link pairing -- in three modes: the old path (fresh
//     build per cell, sort-greedy pairing), grid/MNN pairing alone, and the
//     shared GeometryCache (the sweep runner's default).  Untimed warm-up
//     passes precede the timing, and the full sweep is additionally run
//     through SweepRunner in new-vs-old mode with the signatures gated on
//     bit-equality.
//
// The deterministic sweep signatures of each A/B pair must be bit-identical
// (arena reuse, geometry reuse and the pairing route are invisible in the
// results) or the bench exits 1 before quoting any number.
//
// Flags: --instances <per cell> (default 6), --threads <pool size>
//        (default hardware), --repeat <timing passes, best-of> (default 3),
//        --gen-links <instance-generation A/B size> (default 512, i.e.
//        n = 1024 nodes), plus the obs::BenchHarness flags --json (write
//        BENCH_E20.json, schema v2: arena/malloc and instance-generation
//        phases with dispersion stats and obs counter deltas),
//        --reps/--warmup/--min-time-ms (sampling for the Time()d phases;
//        the grid A/B's samples come from its own --repeat loop).
//
// Run in a Release build; the Assert build's DL_CHECK instrumentation
// dominates the kernel builds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "sinr/kernel.h"
#include "sweep/sweep.h"
#include "sweep/sweep_report.h"
#include "sweep/sweep_runner.h"
#include "tool_args.h"

using namespace decaylib;

namespace {

// The instance-generation A/B grid: every axis non-geometric (power policy
// x SINR threshold), so one sampled geometry generation serves the whole
// grid and the A/B isolates exactly the tentpole's two levers.
sweep::SweepSpec GenSpec(int links, int instances) {
  sweep::SweepSpec spec;
  spec.name = "e20_instance_gen";
  spec.base.name = "e20_instance_gen";
  spec.base.topology = "uniform";
  spec.base.links = links;
  spec.base.instances = instances;
  spec.base.seed = 2021;
  spec.axes = {{"power_tau", {0.0, 0.5, 1.0}}, {"beta", {1.0, 1.5}}};
  spec.tasks = {engine::TaskKind::kGreedyBaseline};
  return spec;
}

sweep::SweepSpec GridSpec(int instances) {
  sweep::SweepSpec spec;
  spec.name = "e20_grid";
  spec.base.name = "e20_grid";
  spec.base.topology = "uniform";
  spec.base.instances = instances;
  spec.base.seed = 2020;
  // n x alpha x power policy (uniform / mean / linear).
  spec.axes = {{"links", {64, 96, 128}},
               {"alpha", {2.5, 3.0, 3.5}},
               {"power_tau", {0.0, 0.5, 1.0}}};
  spec.tasks = {engine::TaskKind::kAlgorithm1,
                engine::TaskKind::kGreedyBaseline};
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int instances = 6;
  int threads = 0;  // 0 = hardware concurrency (explicit values >= 1)
  int repeat = 3;
  int gen_links = 512;  // instance-gen A/B size: n = 2 * gen_links nodes
  bool parse_ok = true;
  for (int i = 1; i < argc && parse_ok; ++i) {
    bool harness_flag_value = false;
    if (std::strcmp(argv[i], "--instances") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--instances", argv[++i], 1, 1 << 20,
                                     &instances);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--threads", argv[++i], 1, 1 << 16,
                                     &threads);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--repeat", argv[++i], 1, 1000, &repeat);
    } else if (std::strcmp(argv[i], "--gen-links") == 0 && i + 1 < argc) {
      parse_ok = tools::ParseIntFlag("--gen-links", argv[++i], 2, 1 << 16,
                                     &gen_links);
    } else if (obs::BenchHarness::IsHarnessFlag(argv[i],
                                                &harness_flag_value)) {
      if (harness_flag_value) ++i;  // the harness validates the value
    } else {
      parse_ok = false;
    }
  }
  obs::BenchHarness report("E20", argc, argv);
  if (!parse_ok || !report.args_ok()) {
    std::fprintf(stderr,
                 "usage: %s [--instances K] [--threads T] [--repeat R] "
                 "[--gen-links L] [--json] [--reps N] [--warmup N] "
                 "[--min-time-ms T]\n",
                 argv[0]);
    return 2;
  }

  bench::Banner("E20", "Sweep engine: grid throughput over kernel arenas",
                "one parameter grid, kernels rebuilt into warm per-worker "
                "arenas vs per-instance allocation; identical results, "
                "higher cells/sec");

  const sweep::SweepSpec spec = GridSpec(instances);
  std::printf("\n%lld cells (links x alpha x power_tau) x %d instances\n\n",
              sweep::GridSize(spec), instances);

  sweep::SweepConfig arena_config;
  arena_config.threads = threads;
  arena_config.reuse_arena = true;
  sweep::SweepConfig malloc_config = arena_config;
  malloc_config.reuse_arena = false;

  // Untimed warm-up pass (allocator, page cache): without it the first
  // timed mode pays the cold start alone and the A/B is biased, visibly so
  // at --repeat 1.  Its result also supplies the per-instance signature for
  // the bit-transparency gate.
  const std::string malloc_signature =
      sweep::SweepSignature(sweep::SweepRunner(malloc_config).Run(spec));

  // Best-of-R timing, alternating modes so neither systematically runs on
  // a warmer machine than the other.  Each mode's per-pass wall times feed
  // the harness as one multi-sample phase, with the obs counter deltas
  // (arena_rebuilds, geometry_reuses, ...) accumulated per mode.
  const auto merge = [](std::map<std::string, long long>& into,
                        std::map<std::string, long long> delta) {
    for (const auto& [name, value] : delta) into[name] += value;
  };
  sweep::SweepResult arena_result;
  std::vector<double> arena_samples;
  std::vector<double> malloc_samples;
  std::map<std::string, long long> arena_counters;
  std::map<std::string, long long> malloc_counters;
  for (int r = 0; r < repeat; ++r) {
    {
      obs::ScopedCounterCapture capture;
      sweep::SweepResult a = sweep::SweepRunner(arena_config).Run(spec);
      merge(arena_counters, capture.Take());
      arena_samples.push_back(a.wall_ms);
      if (r == 0) arena_result = std::move(a);
    }
    {
      obs::ScopedCounterCapture capture;
      const sweep::SweepResult m = sweep::SweepRunner(malloc_config).Run(spec);
      merge(malloc_counters, capture.Take());
      malloc_samples.push_back(m.wall_ms);
    }
  }
  const double arena_ms =
      *std::min_element(arena_samples.begin(), arena_samples.end());
  const double malloc_ms =
      *std::min_element(malloc_samples.begin(), malloc_samples.end());

  if (sweep::SweepSignature(arena_result) != malloc_signature) {
    std::printf(
        "ERROR: sweep signature differs between arena and per-instance "
        "kernels -- arena reuse is not bit-transparent\n");
    return 1;
  }

  sweep::PrintSweepReport(arena_result);

  const double cells = static_cast<double>(arena_result.cells.size());
  const double arena_cps = 1000.0 * cells / arena_ms;
  const double malloc_cps = 1000.0 * cells / malloc_ms;
  std::printf(
      "\narena reuse:   %s cells/s (%s ms best of %d, %lld kernel rebuilds "
      "through %s)\n",
      bench::Fmt(arena_cps, 2).c_str(), bench::Fmt(arena_ms, 1).c_str(),
      repeat, arena_result.arena_rebuilds, "per-worker arenas");
  std::printf("per-instance:  %s cells/s (%s ms best of %d)\n",
              bench::Fmt(malloc_cps, 2).c_str(),
              bench::Fmt(malloc_ms, 1).c_str(), repeat);
  std::printf("reuse speedup: %sx (results bit-identical)\n",
              bench::Fmt(malloc_ms / arena_ms, 3).c_str());

  report.AddSamples("sweep_arena", static_cast<long long>(cells),
                    arena_samples, std::move(arena_counters));
  report.AddSamples("sweep_malloc", static_cast<long long>(cells),
                    malloc_samples, std::move(malloc_counters));

  // Isolated kernel-rebuild A/B at the largest cell shape: the cost of
  // exactly what the arena replaces, free of instance generation and task
  // time.
  {
    engine::ScenarioSpec shape = spec.base;
    const sweep::SweepAxis& links_axis = spec.axes.front();
    shape.links = static_cast<int>(links_axis.values.back());
    const engine::ScenarioInstance inst = engine::BuildInstance(shape, 0);
    const int reps = 60;

    // Untimed warm-up build, for the same cold-start reason as above.
    {
      const sinr::KernelCache warm(inst.system(), inst.power());
      volatile double sink = warm.LinkDecay(0);
      (void)sink;
    }

    const obs::SampleStats fresh_stats =
        report.Time("kernel_rebuild_fresh", shape.links, [&] {
          for (int r = 0; r < reps; ++r) {
            const sinr::KernelCache kernel(inst.system(), inst.power());
            volatile double sink = kernel.LinkDecay(0);
            (void)sink;
          }
        });
    const double fresh_ms = fresh_stats.min_ms;

    sinr::KernelArena arena;
    // The first Rebuild pays the slab allocations; keep it out of the
    // timing, matching the fresh path's untimed warm-up.
    arena.Rebuild(inst.system(), inst.power());
    const obs::SampleStats arena_stats =
        report.Time("kernel_rebuild_arena", shape.links, [&] {
          for (int r = 0; r < reps; ++r) {
            const sinr::KernelCache& kernel =
                arena.Rebuild(inst.system(), inst.power());
            volatile double sink = kernel.LinkDecay(0);
            (void)sink;
          }
        });
    const double arena_rebuild_ms = arena_stats.min_ms;

    std::printf(
        "\nkernel rebuild at n=%d: %s/s through arena vs %s/s fresh "
        "(%sx per-build speedup)\n",
        shape.links, bench::Fmt(1000.0 * reps / arena_rebuild_ms, 1).c_str(),
        bench::Fmt(1000.0 * reps / fresh_ms, 1).c_str(),
        bench::Fmt(fresh_ms / arena_rebuild_ms, 3).c_str());
    // What one arena slot retains (the affectance planes and per-link
    // arrays), against the link planes every kernel on this geometry shares.
    const sinr::LinkPlanes* planes = inst.system().planes();
    constexpr double kKiB = 1.0 / 1024.0;
    std::printf(
        "kernel memory at n=%d: %s KiB per arena slot "
        "(KernelCache::MemoryBytes), %s KiB of shared link planes\n",
        shape.links,
        bench::Fmt(static_cast<double>(
                       arena.Rebuild(inst.system(), inst.power()).MemoryBytes()) *
                       kKiB,
                   1)
            .c_str(),
        bench::Fmt(planes != nullptr
                       ? static_cast<double>(planes->MemoryBytes()) * kKiB
                       : 0.0,
                   1)
            .c_str());
  }

  // Instance-generation A/B on a power/beta-only grid: the cost of getting
  // from a cell spec to a configured ScenarioInstance, with no kernels and
  // no tasks in the way.
  {
    const int gen_instances = 2;
    const sweep::SweepSpec gen = GenSpec(gen_links, gen_instances);
    const std::vector<sweep::SweepCell> cells = sweep::ExpandGrid(gen);
    const double cell_count = static_cast<double>(cells.size());

    const auto generation_pass = [&](bool use_cache,
                                     engine::PairingMode pairing) {
      engine::GeometryCache cache;
      bench::WallTimer timer;
      for (const sweep::SweepCell& cell : cells) {
        if (use_cache) cache.Prepare(cell.spec);
        for (int i = 0; i < gen_instances; ++i) {
          const engine::ScenarioInstance inst =
              use_cache ? engine::ConfigureInstance(
                              cell.spec, cache.Acquire(cell.spec, i, pairing))
                        : engine::BuildInstance(cell.spec, i, pairing);
          volatile double sink = inst.power()[0];
          (void)sink;
        }
      }
      return timer.ElapsedMs();
    };

    // Untimed warm-up (allocator, page cache) of the heaviest mode; every
    // timed pass below then starts from the same warmed state.  The cached
    // pass uses a fresh GeometryCache, so its timing includes the one cold
    // generation a real sweep pays.
    generation_pass(false, engine::PairingMode::kSortGreedy);

    const double sort_ms =
        report
            .Time("instance_gen_sort", gen_links,
                  [&] { generation_pass(false,
                                        engine::PairingMode::kSortGreedy); })
            .min_ms;
    const double grid_ms =
        report
            .Time("instance_gen_grid_pairing", gen_links,
                  [&] { generation_pass(false, engine::PairingMode::kAuto); })
            .min_ms;
    const double cached_ms =
        report
            .Time("instance_gen_geometry_cache", gen_links,
                  [&] { generation_pass(true, engine::PairingMode::kAuto); })
            .min_ms;

    std::printf(
        "\ninstance generation at n=%d nodes, %zu-cell power/beta grid x %d "
        "instances:\n"
        "  old (per-cell build, sort pairing):  %s ms/cell\n"
        "  grid/MNN pairing, no cache:          %s ms/cell (%sx)\n"
        "  geometry cache + grid pairing:       %s ms/cell (%sx)\n",
        2 * gen_links, cells.size(), gen_instances,
        bench::Fmt(sort_ms / cell_count, 2).c_str(),
        bench::Fmt(grid_ms / cell_count, 2).c_str(),
        bench::Fmt(sort_ms / grid_ms, 2).c_str(),
        bench::Fmt(cached_ms / cell_count, 2).c_str(),
        bench::Fmt(sort_ms / cached_ms, 2).c_str());

    // Bit-transparency gate for the whole new path: the grid through the
    // sweep runner with geometry cache + grid pairing must reproduce the
    // un-cached, sort-greedy signature exactly.
    sweep::SweepConfig new_path;
    new_path.threads = threads;
    sweep::SweepConfig old_path = new_path;
    old_path.reuse_geometry = false;
    old_path.pairing = engine::PairingMode::kSortGreedy;
    const sweep::SweepResult new_run = sweep::SweepRunner(new_path).Run(gen);
    const sweep::SweepResult old_run = sweep::SweepRunner(old_path).Run(gen);
    if (sweep::SweepSignature(new_run) != sweep::SweepSignature(old_run)) {
      std::printf(
          "ERROR: sweep signature differs between the geometry-cache/grid-"
          "pairing path and the un-cached sort-greedy path\n");
      return 1;
    }
    std::printf(
        "  sweep signatures bit-identical (new vs old path; %lld geometries "
        "built / %lld reused)\n",
        new_run.geometry_builds, new_run.geometry_reuses);
  }
  return report.Close();
}
