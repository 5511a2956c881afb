// Benchmark workloads, the untraced engine run, and the correctness gate.
//
// Every workload is generated from (name, seed, size) alone: the seed only
// enters the scenario seed, so one seed always yields bit-identical specs
// and therefore bit-identical engine outputs.  RunEngine drives the same
// library entry points the CLIs use -- sweep::SweepRunner::Run or
// engine::BatchRunner::Run, then the checkpoint and report writers -- and
// CheckGate decides whether a run's outputs are correct.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "engine/batch_runner.h"
#include "sweep/sweep_runner.h"

namespace perfbench {

namespace engine = decaylib::engine;
namespace sweep = decaylib::sweep;

// kFull is what the benchmark measures; kSmoke shrinks every size knob so
// the benchmark's own tests can run each workload in well under a second.
enum class Size { kFull, kSmoke };

struct Workload {
  std::string name;
  bool is_sweep = false;
  sweep::SweepSpec sweep;                   // when is_sweep
  std::vector<engine::ScenarioSpec> specs;  // when !is_sweep
  std::vector<engine::TaskKind> tasks;
  int threads = 1;  // fixed worker pool: min(4, hardware threads)
};

// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

// Generates a workload's inputs from its seed.  kInvalidArgument for an
// unknown name.
decaylib::core::StatusOr<Workload> MakeWorkload(const std::string& name,
                                                std::uint64_t seed, Size size);

// Validates every spec of the workload (ValidateSweepSpec /
// ValidateScenarioSpec), as the runners do before any worker starts.
decaylib::core::Status ValidateWorkload(const Workload& workload);

// Outcome of one untraced pass through the engine.
struct EngineRun {
  sweep::SweepResult sweep;                   // when is_sweep
  std::vector<engine::ScenarioResult> batch;  // when !is_sweep
  std::string signature;  // SweepSignature / AggregateSignature
  long long attempted = 0;  // instance-runs attempted
  long long failed = 0;     // instance-runs in failed cells / batches
  std::string error;        // first failure text, empty when none
  double engine_s = 0.0;    // wall time of the Run call alone
  double wall_s = 0.0;      // Run plus checkpoint and report writing
};

// Runs the workload once through the engine, writing its checkpoint (sweeps)
// and reports into the current directory.
EngineRun RunEngine(const Workload& workload);

// The instance records of a run, flattened in grid / spec order.
std::vector<const engine::InstanceRecord*> InstanceRecords(
    const Workload& workload, const EngineRun& run);

// 64-bit FNV-1a digest of a signature, as 16 lowercase hex digits.
std::string Digest(const std::string& signature);

// Recorded digests, keyed by (workload, seed).  File format: one
// "<workload> <seed> <digest>" per line; '#' starts a comment.
using DigestTable = std::map<std::pair<std::string, std::uint64_t>, std::string>;
decaylib::core::StatusOr<DigestTable> LoadDigests(const std::string& path);

// The correctness gate: no failed instance-run, no feasibility or
// validation violation, every aggregate healthy, and -- when a digest is
// recorded for this workload and seed -- the signature digest matches it.
struct GateResult {
  bool ok = true;
  std::vector<std::string> problems;
};
GateResult CheckGate(const Workload& workload, const EngineRun& run,
                     const std::optional<std::string>& expected_digest);

}  // namespace perfbench
