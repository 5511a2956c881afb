#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/report.h"
#include "geom/rng.h"
#include "sweep/sweep_report.h"

namespace perfbench {

namespace core = decaylib::core;
using engine::TaskKind;

namespace {

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The scenario seed of a workload: distinct per workload name, so two
// workloads never sample the same geometry for one benchmark seed.
std::uint64_t ScenarioSeed(const std::string& name, std::uint64_t seed) {
  return decaylib::geom::Mix64(seed ^ Fnv1a(name));
}

int PoolThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 4);
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// The common user sweep: every cell rebuilds its kernels in the sweep's
// arenas, the geometric axis (alpha) is slowest so 5/6 of the instance-runs
// are served warm from the geometry cache, and the capacity and scheduling
// layers run at full size here and nowhere else.
Workload DenseSweep(std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  Workload w;
  w.name = "dense_sweep";
  w.is_sweep = true;
  w.sweep.name = w.name;
  w.sweep.base.name = w.name;
  w.sweep.base.topology = "uniform";
  w.sweep.base.links = full ? 1024 : 48;
  w.sweep.base.instances = full ? 4 : 2;
  w.sweep.base.seed = ScenarioSeed(w.name, seed);
  w.sweep.axes = {{"alpha", {2.5, 3.5}},
                  {"power_tau", {0.0, 0.5}},
                  {"beta", {1.0, 1.5, 2.0}}};
  w.tasks = {TaskKind::kAlgorithm1, TaskKind::kGreedyBaseline,
             TaskKind::kWeighted, TaskKind::kPartitions, TaskKind::kSchedule};
  return w;
}

// The far-field tier: a few large instances, no dense KernelCache, so the
// engine's dense decay matrix and the slowest instance set the run.
Workload FarFieldLarge(std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  Workload w;
  w.name = "farfield_large";
  engine::ScenarioSpec spec;
  spec.name = w.name;
  spec.topology = "uniform";
  spec.links = full ? 4096 : 160;
  spec.instances = full ? 4 : 2;
  spec.kernel_mode = engine::KernelMode::kFarField;
  spec.farfield_epsilon = 1e-3;
  spec.seed = ScenarioSeed(w.name, seed);
  w.specs = {spec};
  w.tasks = {TaskKind::kAlgorithm1, TaskKind::kGreedyBaseline,
             TaskKind::kSchedule};
  return w;
}

// The paper's non-geometric decay space: asymmetric shadowing breaks the
// triangle inequality, so zeta is measured (O(n^3)), pairing takes the
// sort-greedy path, the batch is serialised, and power control runs.
Workload ShadowedPower(std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  Workload w;
  w.name = "shadowed_power";
  engine::ScenarioSpec spec = *engine::FindBuiltinScenario("shadowed_asymmetric");
  spec.name = w.name;
  spec.links = full ? 192 : 24;
  spec.instances = full ? 4 : 2;
  spec.seed = ScenarioSeed(w.name, seed);
  w.specs = {spec};
  w.tasks = {TaskKind::kAlgorithm1, TaskKind::kGreedyBaseline,
             TaskKind::kPowerControl};
  return w;
}

// The kernel and admission layers used the other way round: thousands of
// small per-slot admissions (LQF queueing, the regret game) instead of one
// large pass; the only workload that measures dynamics and distributed.
Workload StabilitySweep(std::uint64_t seed, Size size) {
  const bool full = size == Size::kFull;
  Workload w;
  w.name = "stability_sweep";
  w.is_sweep = true;
  w.sweep.name = w.name;
  engine::ScenarioSpec& base = w.sweep.base;
  base.name = w.name;
  base.topology = "uniform";
  base.links = full ? 256 : 32;
  base.instances = full ? 8 : 2;
  base.seed = ScenarioSeed(w.name, seed);
  base.dynamics.scheduler = decaylib::dynamics::Scheduler::kLongestQueueFirst;
  base.dynamics.queue_slots = full ? 2000 : 100;
  base.dynamics.regret_rounds = full ? 2000 : 100;
  w.sweep.axes = {{"lambda", {0.05, 0.1, 0.2, 0.3}}};
  w.tasks = {TaskKind::kGreedyBaseline, TaskKind::kQueue, TaskKind::kRegret};
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "dense_sweep", "farfield_large", "shadowed_power", "stability_sweep"};
  return names;
}

core::StatusOr<Workload> MakeWorkload(const std::string& name,
                                      std::uint64_t seed, Size size) {
  Workload w;
  if (name == "dense_sweep") {
    w = DenseSweep(seed, size);
  } else if (name == "farfield_large") {
    w = FarFieldLarge(seed, size);
  } else if (name == "shadowed_power") {
    w = ShadowedPower(seed, size);
  } else if (name == "stability_sweep") {
    w = StabilitySweep(seed, size);
  } else {
    return core::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  w.sweep.tasks = w.tasks;
  w.threads = PoolThreads();
  return w;
}

core::Status ValidateWorkload(const Workload& workload) {
  if (workload.is_sweep) return sweep::ValidateSweepSpec(workload.sweep);
  for (const engine::ScenarioSpec& spec : workload.specs) {
    core::Status status = engine::ValidateScenarioSpec(spec);
    if (!status.ok()) return status;
  }
  return core::Status::Ok();
}

EngineRun RunEngine(const Workload& workload) {
  EngineRun run;
  const auto start = std::chrono::steady_clock::now();
  const auto note_error = [&run](const std::string& text) {
    if (run.error.empty()) run.error = text;
  };
  if (workload.is_sweep) {
    sweep::SweepConfig config;
    config.threads = workload.threads;
    config.checkpoint_path = workload.name + ".checkpoint.json";
    run.sweep = sweep::SweepRunner(config).Run(workload.sweep);
    run.engine_s = Seconds(start);
    for (const sweep::SweepCellResult& cell : run.sweep.cells) {
      run.attempted += cell.cell.spec.instances;
      if (!cell.outcome.ok) {
        run.failed += cell.cell.spec.instances;
        note_error("cell " + std::to_string(cell.cell.index) + ": " +
                   cell.outcome.error);
      }
    }
    run.signature = sweep::SweepSignature(run.sweep);
    if (!sweep::WriteSweepCsvFile(run.sweep, workload.name + ".csv") ||
        !sweep::WriteSweepJsonReport(workload.name,
                                     std::span(&run.sweep, 1))) {
      note_error("report writing failed");
    }
  } else {
    for (const engine::ScenarioSpec& spec : workload.specs) {
      run.attempted += spec.instances;
    }
    engine::BatchConfig config;
    config.threads = workload.threads;
    config.tasks = workload.tasks;
    try {
      run.batch = engine::BatchRunner(config).Run(workload.specs);
    } catch (const std::exception& e) {
      run.failed = run.attempted;
      note_error(e.what());
    }
    run.engine_s = Seconds(start);
    run.signature = engine::AggregateSignature(run.batch);
    if (run.failed == 0 && !engine::WriteJsonReport(workload.name, run.batch)) {
      note_error("report writing failed");
    }
  }
  run.wall_s = Seconds(start);
  return run;
}

std::vector<const engine::InstanceRecord*> InstanceRecords(
    const Workload& workload, const EngineRun& run) {
  std::vector<const engine::InstanceRecord*> out;
  const auto add = [&out](const engine::ScenarioResult& result) {
    for (const engine::InstanceRecord& rec : result.instances) {
      out.push_back(&rec);
    }
  };
  if (workload.is_sweep) {
    for (const sweep::SweepCellResult& cell : run.sweep.cells) add(cell.result);
  } else {
    for (const engine::ScenarioResult& result : run.batch) add(result);
  }
  return out;
}

std::string Digest(const std::string& signature) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a(signature));
  return buf;
}

core::StatusOr<DigestTable> LoadDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return core::Status::IoError("cannot read digests " + path);
  DigestTable table;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string workload, digest, extra;
    std::uint64_t seed = 0;
    if (!(fields >> workload)) continue;  // blank or comment line
    if (!(fields >> seed >> digest) || (fields >> extra) ||
        digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos) {
      return core::Status::InvalidArgument(
          path + ":" + std::to_string(line_no) +
          ": expected '<workload> <seed> <16 hex digits>'");
    }
    if (!table.emplace(std::make_pair(workload, seed), digest).second) {
      return core::Status::InvalidArgument(
          path + ":" + std::to_string(line_no) + ": duplicate entry");
    }
  }
  return table;
}

GateResult CheckGate(const Workload& workload, const EngineRun& run,
                     const std::optional<std::string>& expected_digest) {
  GateResult gate;
  const auto fail = [&gate](std::string problem) {
    gate.ok = false;
    gate.problems.push_back(std::move(problem));
  };
  if (run.failed > 0) {
    fail(std::to_string(run.failed) + " of " + std::to_string(run.attempted) +
         " instance-runs failed");
  }
  if (!run.error.empty()) fail("error: " + run.error);

  long long violations = 0;
  std::vector<const engine::ScenarioResult*> results;
  if (workload.is_sweep) {
    violations = sweep::SweepViolationCount(run.sweep);
    for (const sweep::SweepCellResult& cell : run.sweep.cells) {
      if (cell.outcome.ok) results.push_back(&cell.result);
    }
  } else {
    violations = engine::ViolationCount(run.batch);
    for (const engine::ScenarioResult& result : run.batch) {
      results.push_back(&result);
    }
  }
  if (violations != 0) {
    fail(std::to_string(violations) + " feasibility/validation violations");
  }
  for (const engine::ScenarioResult* result : results) {
    const core::Status health = engine::AggregateHealth(*result);
    if (!health.ok()) fail(result->spec.name + ": " + health.ToString());
  }
  if (expected_digest && Digest(run.signature) != *expected_digest) {
    fail("signature digest " + Digest(run.signature) + " != recorded " +
         *expected_digest);
  }
  return gate;
}

}  // namespace perfbench
