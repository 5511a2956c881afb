// The traced run: every instance of a workload, one at a time, through each
// layer's public functions, with a span around every layer call.
//
// The serial pass mirrors engine::BatchRunner's per-instance route
// (geometry -> configure -> kernel -> tasks) and the sweep runner's
// geometry cache, kernel arena and per-cell checkpointing, calling the same
// library functions, so its per-instance outputs must equal the untraced
// run's InstanceRecords bit for bit.  Two pieces of engine logic live in
// batch_runner.cc's anonymous namespace and are rebuilt here: the
// power-control greedy loop and the per-task rng streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {

// The deterministic per-instance outputs the traced run must reproduce.
struct InstanceOutputs {
  double zeta = 0.0;
  int alg1_size = -1;
  int alg1_admitted = -1;
  bool alg1_feasible = true;
  int greedy_size = -1;
  double weighted_value = -1.0;
  int partition_classes = -1;
  int schedule_slots = -1;
  bool schedule_valid = true;
  int pc_greedy_size = -1;
  double queue_throughput = -1.0;
  double regret_successes = -1.0;
};

InstanceOutputs OutputsOf(const engine::InstanceRecord& record);

// Empty when the two agree bit for bit; else names the first field that
// differs.
std::string CompareOutputs(const InstanceOutputs& traced,
                           const InstanceOutputs& untraced);

// Work counts gathered by the pass (whether or not spans are on).
struct PassTallies {
  long long instances = 0;
  long long geometry_builds = 0;
  long long cache_acquires = 0;
  long long cache_warm = 0;
  double decay_matrix_bytes = 0.0;  // largest, computed 8 * (2 links)^2
  long long metricity_calls = 0;
  long long kernel_builds = 0;
  long long kernel_warm = 0;  // arena rebuilds into a right-sized slab
  double kernel_bytes = 0.0;  // largest KernelCache::MemoryBytes()
  long long farfield_builds = 0;
  double farfield_bytes = 0.0;  // largest FarFieldKernel::MemoryBytes()
  long long pc_calls = 0;
  long long pc_feasible = 0;
  long long alg1_selected = 0;
  long long alg1_admitted = 0;
  long long schedule_slots = 0;
  long long queue_slots = 0;
  long long regret_rounds = 0;
  double checkpoint_bytes = 0.0;  // size of the final sidecar
  // Far-field contract: far-field sets re-checked with the exact
  // LinkSystem::IsFeasible after the instance span closed.
  long long contract_sets = 0;
  long long contract_violations = 0;
};

struct PassResult {
  std::vector<InstanceOutputs> outputs;  // grid / spec order
  PassTallies tallies;
  double wall_s = 0.0;  // the whole serial pass
};

// The obs counters every traced span snapshots (TracedCounters()[i] is
// Tracer::counters()[i] for a tracer built with them).
const std::vector<std::string>& TracedCounters();

// Runs the serial pass.  With a tracer every layer call gets a span, obs
// counters are on for the pass, and far-field sets are re-checked exactly;
// with a null tracer the same calls run bare.  The
// sweep checkpoint and report writers are fed the untraced run's results
// (the aggregates are the engine's own reduction).
PassResult RunSerialPass(const Workload& workload, const EngineRun& untraced,
                         Tracer* tracer);

}  // namespace perfbench
