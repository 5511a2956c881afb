// Sweep engine tests: deterministic grid expansion, axis application,
// builtin sweep well-formedness, the runner's thread-count and arena
// invariances, and the CSV export.
#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/report.h"
#include "engine/scenario.h"
#include "obs/bench_harness.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sweep/sweep_report.h"
#include "sweep/sweep_runner.h"

namespace decaylib::sweep {
namespace {

SweepSpec TinySweep() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.base.name = "tiny";
  spec.base.topology = "uniform";
  spec.base.links = 12;
  spec.base.instances = 2;
  spec.base.seed = 777;
  spec.axes = {{"links", {10, 14}}, {"alpha", {2.5, 3.0}}};
  return spec;
}

TEST(SweepSpecTest, SweepableFieldsApply) {
  engine::ScenarioSpec spec;
  for (const std::string& field : SweepableFields()) {
    EXPECT_TRUE(IsSweepableField(field)) << field;
    // 2.0 is integral and valid for every field except lambda, whose values
    // are probabilities in [0, 1].
    EXPECT_TRUE(
        ApplyAxisValue(spec, field, field == "lambda" ? 0.5 : 2.0).ok())
        << field;
  }
  EXPECT_FALSE(IsSweepableField("topology"));
  EXPECT_FALSE(IsSweepableField("scheduler"));
  EXPECT_EQ(spec.links, 2);
  EXPECT_EQ(spec.instances, 2);
  EXPECT_EQ(spec.alpha, 2.0);
  EXPECT_EQ(spec.sigma_db, 2.0);
  EXPECT_EQ(spec.power_tau, 2.0);
  EXPECT_EQ(spec.beta, 2.0);
  EXPECT_EQ(spec.noise, 2.0);
  EXPECT_EQ(spec.zeta, 2.0);
  EXPECT_EQ(spec.dynamics.lambda, 0.5);
  EXPECT_EQ(spec.dynamics.regret_penalty, 2.0);
}

// Bad axis bindings are recoverable errors now, not aborts: the status
// carries the diagnostic and the spec is left untouched.
TEST(SweepSpecTest, OutOfRangeAxisValuesRejectedAsStatus) {
  engine::ScenarioSpec spec;
  const engine::ScenarioSpec before = spec;

  core::Status status = ApplyAxisValue(spec, "lambda", 1.5);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("Bernoulli"), std::string::npos);
  EXPECT_EQ(spec.dynamics.lambda, before.dynamics.lambda);

  status = ApplyAxisValue(spec, "lambda", -0.5);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);

  status = ApplyAxisValue(spec, "regret_penalty", -1.0);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(">= 0"), std::string::npos);

  status = ApplyAxisValue(spec, "links", 2.5);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("integral"), std::string::npos);

  status = ApplyAxisValue(spec, "no_such_field", 1.0);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  // The diagnostic lists the sweepable fields, so a CLI typo self-explains.
  EXPECT_NE(status.message().find("links"), std::string::npos);
  EXPECT_NE(status.message().find("regret_penalty"), std::string::npos);
}

TEST(SweepSpecTest, ValidateSweepSpecCatchesBadAxesAndBase) {
  EXPECT_TRUE(ValidateSweepSpec(TinySweep()).ok());

  SweepSpec bad_base = TinySweep();
  bad_base.base.beta = 0.5;
  EXPECT_EQ(ValidateSweepSpec(bad_base).code(),
            core::StatusCode::kInvalidArgument);

  SweepSpec unknown_axis = TinySweep();
  unknown_axis.axes.push_back({"bogus", {1.0}});
  EXPECT_EQ(ValidateSweepSpec(unknown_axis).code(),
            core::StatusCode::kInvalidArgument);

  SweepSpec empty_axis = TinySweep();
  empty_axis.axes.push_back({"noise", {}});
  EXPECT_EQ(ValidateSweepSpec(empty_axis).code(),
            core::StatusCode::kInvalidArgument);

  // The value parses into the field but yields an invalid cell spec.
  SweepSpec bad_cell = TinySweep();
  bad_cell.axes.push_back({"beta", {1.0, 0.25}});
  const core::Status status = ValidateSweepSpec(bad_cell);
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("beta"), std::string::npos);
}

TEST(SweepGridTest, ExpansionIsRowMajorLastAxisFastest) {
  const SweepSpec spec = TinySweep();
  EXPECT_EQ(GridSize(spec), 4);
  const std::vector<SweepCell> cells = ExpandGrid(spec);
  ASSERT_EQ(cells.size(), 4u);

  const std::vector<std::vector<int>> expected_coords = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> expected_links = {10, 10, 14, 14};
  const std::vector<double> expected_alpha = {2.5, 3.0, 2.5, 3.0};
  std::set<std::string> names;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    EXPECT_EQ(cells[c].index, static_cast<int>(c));
    EXPECT_EQ(cells[c].coords, expected_coords[c]);
    EXPECT_EQ(cells[c].spec.links, expected_links[c]);
    EXPECT_EQ(cells[c].spec.alpha, expected_alpha[c]);
    // Untouched base fields carry through.
    EXPECT_EQ(cells[c].spec.seed, spec.base.seed);
    EXPECT_EQ(cells[c].spec.instances, spec.base.instances);
    EXPECT_TRUE(names.insert(cells[c].spec.name).second)
        << "duplicate cell name " << cells[c].spec.name;
    EXPECT_NE(cells[c].spec.name.find("links="), std::string::npos);
  }
}

TEST(SweepGridTest, AxisFreeSweepIsOneBaseCell) {
  SweepSpec spec = TinySweep();
  spec.axes.clear();
  EXPECT_EQ(GridSize(spec), 1);
  const std::vector<SweepCell> cells = ExpandGrid(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].spec.name, spec.base.name);
  EXPECT_EQ(cells[0].spec.links, spec.base.links);
}

TEST(SweepGridTest, BuiltinSweepsAreWellFormed) {
  const std::vector<SweepSpec> sweeps = BuiltinSweeps();
  EXPECT_GE(sweeps.size(), 3u);
  std::set<std::string> seen;
  for (const SweepSpec& sweep : sweeps) {
    EXPECT_TRUE(seen.insert(sweep.name).second) << "duplicate " << sweep.name;
    EXPECT_TRUE(engine::IsRegisteredTopology(sweep.base.topology))
        << sweep.name;
    EXPECT_GE(GridSize(sweep), 2) << sweep.name;
    for (const SweepAxis& axis : sweep.axes) {
      EXPECT_TRUE(IsSweepableField(axis.field)) << sweep.name;
      EXPECT_FALSE(axis.values.empty()) << sweep.name;
    }
    EXPECT_TRUE(FindBuiltinSweep(sweep.name).has_value());
  }
  EXPECT_FALSE(FindBuiltinSweep("no_such_sweep").has_value());
}

// The sweep engine's core contract: the deterministic signature of a grid
// depends on neither the worker-thread count nor arena reuse.
TEST(SweepRunnerTest, SignatureInvariantAcrossThreadsAndArena) {
  const SweepSpec spec = TinySweep();

  SweepConfig serial;
  serial.threads = 1;
  SweepConfig pooled;
  pooled.threads = 4;
  SweepConfig pooled_no_arena = pooled;
  pooled_no_arena.reuse_arena = false;

  const SweepResult a = SweepRunner(serial).Run(spec);
  const SweepResult b = SweepRunner(pooled).Run(spec);
  const SweepResult c = SweepRunner(pooled_no_arena).Run(spec);

  ASSERT_EQ(a.cells.size(), 4u);
  const std::string sig = SweepSignature(a);
  EXPECT_EQ(sig, SweepSignature(b));
  EXPECT_EQ(sig, SweepSignature(c));
  EXPECT_EQ(SweepViolationCount(a), 0);
  // Every kernel of the arena-backed runs went through an arena slot.
  EXPECT_EQ(a.arena_rebuilds, 4 * 2);
  EXPECT_EQ(b.arena_rebuilds, 4 * 2);
  EXPECT_EQ(c.arena_rebuilds, 0);
  // Both TinySweep axes are geometric, so the cache holds but never hits.
  EXPECT_EQ(a.geometry_builds, 4 * 2);
  EXPECT_EQ(a.geometry_reuses, 0);
}

// Geometry reuse and the pairing route are invisible in the signature --
// across thread counts, cache on/off, and grid/MNN vs sort-greedy pairing
// -- and the accounting matches the grid structure exactly.
TEST(SweepRunnerTest, SignatureInvariantAcrossGeometryCacheAndPairing) {
  SweepSpec spec = TinySweep();
  // alpha re-samples geometry, power_tau and beta do not; with the
  // non-geometric axes fastest, each alpha generation serves 4 cells.
  spec.axes = {{"alpha", {2.5, 3.0}},
               {"power_tau", {0.0, 0.5}},
               {"beta", {1.0, 1.5}}};

  SweepConfig cached_serial;
  cached_serial.threads = 1;
  SweepConfig cached_pooled;
  cached_pooled.threads = 4;
  SweepConfig uncached = cached_pooled;
  uncached.reuse_geometry = false;
  SweepConfig uncached_sort = uncached;
  uncached_sort.pairing = engine::PairingMode::kSortGreedy;
  SweepConfig cached_sort = cached_pooled;
  cached_sort.pairing = engine::PairingMode::kSortGreedy;

  const SweepResult a = SweepRunner(cached_serial).Run(spec);
  const SweepResult b = SweepRunner(cached_pooled).Run(spec);
  const SweepResult c = SweepRunner(uncached).Run(spec);
  const SweepResult d = SweepRunner(uncached_sort).Run(spec);
  const SweepResult e = SweepRunner(cached_sort).Run(spec);

  ASSERT_EQ(a.cells.size(), 8u);
  const std::string sig = SweepSignature(a);
  EXPECT_EQ(sig, SweepSignature(b));
  EXPECT_EQ(sig, SweepSignature(c));
  EXPECT_EQ(sig, SweepSignature(d));
  EXPECT_EQ(sig, SweepSignature(e));
  EXPECT_EQ(SweepViolationCount(a), 0);

  // 2 alpha generations x 2 instances sampled once each; the other 6 cells
  // of each generation reuse them.  Identical accounting on every cached
  // run, independent of the thread count.
  EXPECT_EQ(a.geometry_builds, 2 * 2);
  EXPECT_EQ(a.geometry_reuses, 6 * 2);
  EXPECT_EQ(b.geometry_builds, 2 * 2);
  EXPECT_EQ(b.geometry_reuses, 6 * 2);
  EXPECT_EQ(c.geometry_builds, 0);
  EXPECT_EQ(c.geometry_reuses, 0);
}

// A dynamics grid (lambda x regret_penalty, both non-geometric) keeps the
// sweep contract: signatures invariant under the thread count and the
// geometry cache, one geometry generation serving every cell, and the
// queue/regret metrics present in every cell's aggregate and in the CSV
// export.
TEST(SweepRunnerTest, DynamicsAxesShareGeometryAndStayDeterministic) {
  SweepSpec spec = TinySweep();
  spec.base.links = 10;
  spec.base.dynamics.queue_slots = 120;
  spec.base.dynamics.regret_rounds = 120;
  spec.axes = {{"lambda", {0.05, 0.3}}, {"regret_penalty", {0.5, 1.0}}};
  spec.tasks = {engine::TaskKind::kQueue, engine::TaskKind::kRegret};

  SweepConfig serial;
  serial.threads = 1;
  SweepConfig pooled;
  pooled.threads = 4;
  SweepConfig uncached = pooled;
  uncached.reuse_geometry = false;

  const SweepResult a = SweepRunner(serial).Run(spec);
  const SweepResult b = SweepRunner(pooled).Run(spec);
  const SweepResult c = SweepRunner(uncached).Run(spec);
  ASSERT_EQ(a.cells.size(), 4u);
  EXPECT_EQ(SweepSignature(a), SweepSignature(b));
  EXPECT_EQ(SweepSignature(a), SweepSignature(c));
  EXPECT_EQ(c.geometry_builds, 0);
  // Both axes are non-geometric: the first cell samples each instance once
  // and every other cell reuses them.
  EXPECT_EQ(a.geometry_builds, 2);
  EXPECT_EQ(a.geometry_reuses, 3 * 2);
  for (const SweepCellResult& cell : a.cells) {
    for (const char* metric :
         {"queue_throughput", "queue_unstable", "regret_successes"}) {
      const engine::MetricSummary* m =
          engine::FindAggregateMetric(cell.result, metric);
      ASSERT_NE(m, nullptr) << cell.cell.spec.name << " " << metric;
      EXPECT_EQ(m->count, 2) << cell.cell.spec.name << " " << metric;
    }
  }
  const std::vector<std::string> header = SweepCsvHeader(a);
  EXPECT_NE(std::find(header.begin(), header.end(), "queue_throughput_mean"),
            header.end());
  EXPECT_NE(std::find(header.begin(), header.end(), "regret_successes_mean"),
            header.end());

  // Higher arrival rates can only grow the per-cell mean backlog: the
  // lambda frontier read off the grid is monotone.
  const auto mean_queue_at = [&](std::size_t cell) {
    const engine::MetricSummary* m =
        engine::FindAggregateMetric(a.cells[cell].result, "queue_mean_queue");
    return m == nullptr ? -1.0 : m->Mean();
  };
  EXPECT_LE(mean_queue_at(0), mean_queue_at(2) + 1e-9);
  EXPECT_LE(mean_queue_at(1), mean_queue_at(3) + 1e-9);
}

TEST(SweepSpecTest, FarFieldEpsilonAxisAppliesAndValidates) {
  engine::ScenarioSpec spec;
  EXPECT_TRUE(IsSweepableField("farfield_epsilon"));
  EXPECT_TRUE(ApplyAxisValue(spec, "farfield_epsilon", 0.0).ok());
  EXPECT_EQ(spec.farfield_epsilon, 0.0);
  EXPECT_TRUE(ApplyAxisValue(spec, "farfield_epsilon", 1e-3).ok());
  EXPECT_EQ(spec.farfield_epsilon, 1e-3);

  const double before = spec.farfield_epsilon;
  const core::Status negative =
      ApplyAxisValue(spec, "farfield_epsilon", -1e-3);
  EXPECT_EQ(negative.code(), core::StatusCode::kInvalidArgument);
  EXPECT_EQ(spec.farfield_epsilon, before);  // spec untouched on rejection

  // A grid over the certified bound in far-field mode runs clean and stays
  // thread-count invariant like every other axis.
  SweepSpec sweep = TinySweep();
  sweep.base.links = 10;
  sweep.base.kernel_mode = engine::KernelMode::kFarField;
  sweep.axes = {{"farfield_epsilon", {0.0, 1e-3}}};
  sweep.tasks = {engine::TaskKind::kAlgorithm1,
                 engine::TaskKind::kGreedyBaseline};
  EXPECT_TRUE(ValidateSweepSpec(sweep).ok());

  SweepConfig serial;
  serial.threads = 1;
  SweepConfig pooled;
  pooled.threads = 4;
  const SweepResult a = SweepRunner(serial).Run(sweep);
  const SweepResult b = SweepRunner(pooled).Run(sweep);
  ASSERT_EQ(a.cells.size(), 2u);
  EXPECT_EQ(SweepSignature(a), SweepSignature(b));
  EXPECT_EQ(SweepViolationCount(a), 0);
  // Both cells share one geometry generation: epsilon is non-geometric.
  EXPECT_EQ(a.geometry_builds, 2);
  EXPECT_EQ(a.geometry_reuses, 2);
}

// An LRU depth covering the geometric axis turns an interleaved-key grid's
// thrash into warm generation hits without perturbing the signature.
TEST(SweepRunnerTest, LruGenerationsKeepSignatureAndTurnThrashIntoHits) {
  SweepSpec spec = TinySweep();
  // Geometric axis fastest: keys alternate K1 K2 K1 K2 across the grid,
  // the worst case for a single-generation cache.
  spec.axes = {{"beta", {1.0, 1.5}}, {"alpha", {2.5, 3.0}}};

  SweepConfig shallow;
  shallow.threads = 2;  // depth 1: the historical behaviour
  SweepConfig deep = shallow;
  deep.geometry_generations = 2;
  SweepConfig deep_serial = deep;
  deep_serial.threads = 1;

  const SweepResult a = SweepRunner(shallow).Run(spec);
  const SweepResult b = SweepRunner(deep).Run(spec);
  const SweepResult c = SweepRunner(deep_serial).Run(spec);

  ASSERT_EQ(a.cells.size(), 4u);
  const std::string sig = SweepSignature(a);
  EXPECT_EQ(sig, SweepSignature(b));
  EXPECT_EQ(sig, SweepSignature(c));
  EXPECT_EQ(SweepViolationCount(a), 0);

  // Depth 1 rebuilds every revisited key (2 instances x 4 cells) and
  // evicts on every key change after the first.
  EXPECT_EQ(a.geometry_builds, 4 * 2);
  EXPECT_EQ(a.geometry_generation_hits, 0);
  EXPECT_EQ(a.geometry_evictions, 3);
  // Depth 2 holds both alpha generations: the second pass is all hits.
  EXPECT_EQ(b.geometry_builds, 2 * 2);
  EXPECT_EQ(b.geometry_reuses, 2 * 2);
  EXPECT_EQ(b.geometry_generation_hits, 2);
  EXPECT_EQ(b.geometry_evictions, 0);
  EXPECT_EQ(c.geometry_generation_hits, 2);
}

TEST(SweepReportTest, CsvHasOneRowPerCellAndAxisColumns) {
  SweepSpec spec = TinySweep();
  spec.tasks = {engine::TaskKind::kAlgorithm1,
                engine::TaskKind::kGreedyBaseline};
  SweepConfig config;
  config.threads = 2;
  const SweepResult result = SweepRunner(config).Run(spec);

  const std::vector<std::string> header = SweepCsvHeader(result);
  const auto rows = SweepCsvRows(result);
  ASSERT_EQ(rows.size(), result.cells.size());
  // sweep, cell, links axis, alpha axis, instances, then metrics -- the
  // links context column is skipped because the links axis already carries
  // it, so no header name repeats.
  ASSERT_GE(header.size(), 5u);
  EXPECT_EQ(header[0], "sweep");
  EXPECT_EQ(header[2], "links");
  EXPECT_EQ(header[3], "alpha");
  EXPECT_EQ(header[4], "instances");
  const std::set<std::string> unique(header.begin(), header.end());
  EXPECT_EQ(unique.size(), header.size()) << "duplicate CSV column name";
  bool has_alg1 = false;
  for (const std::string& column : header) {
    if (column == "alg1_size_mean") has_alg1 = true;
  }
  EXPECT_TRUE(has_alg1);
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), header.size());
    EXPECT_EQ(row[0], "tiny");
  }

  const std::string path = "SWEEP_TEST_OUT.csv";
  ASSERT_TRUE(WriteSweepCsvFile(result, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  in.close();
  EXPECT_EQ(lines, result.cells.size() + 1);  // header + one row per cell
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

// Metrics + tracing must be inert: a sweep's signature is bit-identical
// with observability off and on, at any thread count -- and the timing
// surfaces (stage stats, attempt times) are populated either way.
TEST(SweepRunnerTest, ObservabilityInertAcrossThreadsAndStageStats) {
  const SweepSpec spec = TinySweep();
  SweepConfig serial;
  serial.threads = 1;
  SweepConfig pooled;
  pooled.threads = 4;

  obs::SetEnabled(false);
  const std::string sig = SweepSignature(SweepRunner(pooled).Run(spec));

  obs::SetEnabled(true);
  obs::TraceSink::Global().Start();
  const SweepResult on_pooled = SweepRunner(pooled).Run(spec);
  const SweepResult on_serial = SweepRunner(serial).Run(spec);
  EXPECT_GT(obs::TraceSink::Global().EventCount(), 0u);
  obs::TraceSink::Global().Stop();
  obs::TraceSink::Global().Clear();
  obs::SetEnabled(false);

  EXPECT_EQ(SweepSignature(on_pooled), sig);
  EXPECT_EQ(SweepSignature(on_serial), sig);

  // Timing surfaces are plain wall clock, independent of the obs flag.
  EXPECT_FALSE(on_serial.stage_stats.empty());
  for (const SweepCellResult& cell : on_serial.cells) {
    ASSERT_TRUE(cell.outcome.ok) << cell.cell.spec.name;
    EXPECT_GT(cell.outcome.attempt_ms, 0.0) << cell.cell.spec.name;
    EXPECT_GE(cell.outcome.total_attempt_ms, cell.outcome.attempt_ms);
    EXPECT_FALSE(cell.result.stage_stats.empty()) << cell.cell.spec.name;
  }
}

// A constant-shape grid (no links axis) exercises the arena warm path: one
// worker's slab goes cold exactly once, every later rebuild is a skip.
TEST(SweepRunnerTest, ArenaWarmSkipsCountedOnConstantShapeGrid) {
  SweepSpec spec = TinySweep();
  spec.axes = {{"alpha", {2.5, 3.0}}, {"beta", {1.0, 1.5}}};
  SweepConfig config;
  config.threads = 1;
  const SweepResult result = SweepRunner(config).Run(spec);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.arena_rebuilds, 4 * 2);
  EXPECT_EQ(result.arena_warm_skips, 4 * 2 - 1);

  SweepConfig no_arena = config;
  no_arena.reuse_arena = false;
  const SweepResult direct = SweepRunner(no_arena).Run(spec);
  EXPECT_EQ(direct.arena_rebuilds, 0);
  EXPECT_EQ(direct.arena_warm_skips, 0);
  EXPECT_EQ(SweepSignature(direct), SweepSignature(result));
}

// Attempt timing is execution only: checkpoint writes and resume restores
// are timed in their own buckets, and restored cells report zero.
TEST(SweepRunnerTest, AttemptTimingExcludesCheckpointAndResume) {
  const SweepSpec spec = TinySweep();
  const std::string path = "SWEEP_TEST_OBS_CKPT.json";
  std::remove(path.c_str());

  SweepConfig first;
  first.threads = 2;
  first.checkpoint_path = path;
  first.halt_after_cells = 2;
  const SweepResult partial = SweepRunner(first).Run(spec);
  const obs::StageStats::Stage* writes =
      partial.stage_stats.Find("checkpoint_write");
  ASSERT_NE(writes, nullptr);
  EXPECT_GT(writes->total_ms, 0.0);
  // Two per-cell saves plus the final save at the halt.
  EXPECT_GE(writes->count, 2);
  EXPECT_EQ(partial.stage_stats.Find("resume_restore"), nullptr);

  SweepConfig second = first;
  second.halt_after_cells = 0;
  second.resume = true;
  const SweepResult resumed = SweepRunner(second).Run(spec);
  EXPECT_EQ(std::remove(path.c_str()), 0);

  EXPECT_EQ(resumed.cells_resumed, 2);
  const obs::StageStats::Stage* restore =
      resumed.stage_stats.Find("resume_restore");
  ASSERT_NE(restore, nullptr);
  EXPECT_EQ(restore->count, 1);
  EXPECT_GT(restore->total_ms, 0.0);
  int fresh = 0;
  for (const SweepCellResult& cell : resumed.cells) {
    ASSERT_TRUE(cell.outcome.ok) << cell.cell.spec.name;
    if (cell.outcome.resumed) {
      EXPECT_EQ(cell.outcome.attempt_ms, 0.0) << cell.cell.spec.name;
      EXPECT_EQ(cell.outcome.total_attempt_ms, 0.0);
    } else {
      ++fresh;
      EXPECT_GT(cell.outcome.attempt_ms, 0.0) << cell.cell.spec.name;
    }
  }
  EXPECT_EQ(fresh, 2);
  // The full run and the interrupted+resumed run agree bit-for-bit.
  SweepConfig plain;
  plain.threads = 2;
  EXPECT_EQ(SweepSignature(resumed), SweepSignature(SweepRunner(plain).Run(spec)));
}

// A retried cell's final-attempt time excludes the failed attempt, which
// still shows up in the all-attempts total.
TEST(SweepRunnerTest, RetriedCellAccumulatesTotalAttemptTime) {
  const SweepSpec spec = TinySweep();
  SweepConfig config;
  config.threads = 2;
  config.fault.fail_cell = 1;
  config.fault.fail_attempts = 1;
  const SweepResult result = SweepRunner(config).Run(spec);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells_retried, 1);
  const CellOutcome& outcome = result.cells[1].outcome;
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_GT(outcome.attempt_ms, 0.0);
  EXPECT_GT(outcome.total_attempt_ms, outcome.attempt_ms);
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    if (c == 1) continue;
    const CellOutcome& other = result.cells[c].outcome;
    EXPECT_EQ(other.attempts, 1);
    EXPECT_DOUBLE_EQ(other.total_attempt_ms, other.attempt_ms);
  }
}

// The acceptance bar for the timing breakdown: run serially, a cell's
// summed stage times account for its attempt wall time (the untimed
// remainder is queue handoff + aggregation, small at instances=6).
TEST(SweepRunnerTest, StageBreakdownCoversCellWallTimeSerially) {
  SweepSpec spec = TinySweep();
  spec.base.instances = 6;
  SweepConfig config;
  config.threads = 1;
  const SweepResult result = SweepRunner(config).Run(spec);
  ASSERT_EQ(result.cells.size(), 4u);
  for (const SweepCellResult& cell : result.cells) {
    ASSERT_TRUE(cell.outcome.ok) << cell.cell.spec.name;
    const double stage_ms = cell.result.stage_stats.TotalMs();
    const double wall_ms = cell.outcome.attempt_ms;
    EXPECT_GT(stage_ms, 0.0) << cell.cell.spec.name;
    // Stages nest strictly inside the attempt; allow tiny clock skew up.
    EXPECT_LE(stage_ms, wall_ms * 1.02 + 0.5) << cell.cell.spec.name;
    // And they account for at least 90% of it (modulo an absolute floor
    // for sub-millisecond cells).
    EXPECT_GE(stage_ms, wall_ms * 0.9 - 0.5) << cell.cell.spec.name;
  }
}

// The kernel layer's work counters over a TinySweep-shaped grid whose inner
// axis is non-geometric: the link planes are built once per sampled
// geometry, not once per kernel, and every cell's kernel build writes
// exactly its two n x n affectance planes (aff_raw and its transpose).
TEST(SweepRunnerTest, PlanesBuiltOncePerGeometryKernelsWriteTwoPlanes) {
  SweepSpec spec = TinySweep();
  spec.axes = {{"links", {10, 14}}, {"beta", {1.0, 1.5}}};
  SweepConfig config;
  config.threads = 2;
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& plane_builds = registry.GetCounter("sinr.plane_builds");
  obs::Counter& plane_entries = registry.GetCounter("sinr.plane_entries");
  obs::Counter& kernel_builds = registry.GetCounter("sinr.kernel_builds");
  obs::Counter& kernel_entries = registry.GetCounter("sinr.kernel_entries");
  obs::SetEnabled(true);
  const long long planes0 = plane_builds.value();
  const long long plane_entries0 = plane_entries.value();
  const long long kernels0 = kernel_builds.value();
  const long long kernel_entries0 = kernel_entries.value();
  const SweepResult result = SweepRunner(config).Run(spec);
  obs::SetEnabled(false);

  long long cell_builds = 0;
  long long cell_entries = 0;
  for (const SweepCellResult& cell : result.cells) {
    ASSERT_TRUE(cell.outcome.ok) << cell.cell.spec.name;
    const long long n = cell.cell.spec.links;
    cell_builds += cell.cell.spec.instances;
    cell_entries += cell.cell.spec.instances * 2 * n * n;
  }
  // links {10, 14} x 2 instances sampled; the beta cells reuse them.
  EXPECT_EQ(result.geometry_builds, 2 * 2);
  EXPECT_EQ(plane_builds.value() - planes0, result.geometry_builds);
  EXPECT_EQ(plane_entries.value() - plane_entries0,
            2 * (2 * 10 * 10 + 2 * 14 * 14));
  EXPECT_EQ(kernel_builds.value() - kernels0, cell_builds);
  EXPECT_EQ(cell_builds, 4 * 2);
  EXPECT_EQ(kernel_entries.value() - kernel_entries0, cell_entries);
}

TEST(SweepReportTest, JsonReportWritesEngineCompatibleFile) {
  SweepSpec spec = TinySweep();
  spec.tasks = {engine::TaskKind::kAlgorithm1};
  SweepConfig config;
  config.threads = 1;
  const SweepResult result = SweepRunner(config).Run(spec);
  ASSERT_TRUE(WriteSweepJsonReport("SWEEP_TEST", {&result, 1}));
  const core::StatusOr<obs::BenchReportData> parsed =
      obs::LoadBenchReport("BENCH_SWEEP_TEST.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->bench, "SWEEP_TEST");
  EXPECT_EQ(parsed->schema, 2);
  // One batch/geometry/kernel_build/tasks phase set per ok cell.
  EXPECT_EQ(parsed->phases.size(), 4 * result.cells.size());
  EXPECT_EQ(std::remove("BENCH_SWEEP_TEST.json"), 0);
}

}  // namespace
}  // namespace decaylib::sweep
