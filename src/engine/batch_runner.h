// Batched multi-instance execution of deployment scenarios over warm
// kernel caches.
//
// BatchRunner takes a list of ScenarioSpecs, instantiates every instance of
// every family, builds each instance's sinr::KernelCache exactly once, and
// runs a pluggable set of algorithm tasks (Algorithm 1, the greedy baseline,
// weighted capacity, the Lemma 4.1 partition, full scheduling, the cached
// power-control oracle) against the warm cache.  Work items are distributed
// over a thread pool, but every deterministic statistic is invariant under
// the thread count:
//   * instances are built from (spec, index) alone (see BuildInstance), so
//     a worker's identity never leaks into an instance;
//   * per-instance records land in a preallocated slot indexed by instance,
//     not in arrival order;
//   * aggregates are reduced sequentially in instance order after the pool
//     drains, so floating-point sums always associate the same way.
// AggregateSignature() serialises exactly the deterministic part of a
// report; tests and benches assert it is bit-identical between 1-thread and
// N-thread runs.  Wall-clock fields (stage breakdowns, batch time,
// throughput) are measured per run and are the only non-deterministic
// outputs.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "engine/scenario.h"
#include "obs/stage_stats.h"
#include "sinr/kernel.h"

namespace decaylib::engine {

// The algorithm tasks a batch can run against each instance's warm kernel.
// Every task runs on the instance's actual power assignment; for specs with
// power_tau != 0 the kernels are non-uniform, where feasibility, schedule
// validity and class budgets remain exact (affectance is power-aware) but
// the paper's *guarantees* for kAlgorithm1/kPartitions -- approximation
// factor, zeta-separation of the Lemma 4.1 classes -- are stated for
// uniform power only and carry over heuristically.
enum class TaskKind {
  kAlgorithm1,      // RunAlgorithm1 at the instance's zeta
  kGreedyBaseline,  // GreedyFeasible over all links
  kWeighted,        // WeightedAlgorithm1 with per-instance random weights
  kPartitions,      // Lemma41Partition of Algorithm 1's feasible set
  kSchedule,        // ScheduleLinks (Algorithm 1 extractor)
  kPowerControl,    // cached Foschini-Miljanic oracle: greedy admission under
                    // arbitrary power control + all-links verdicts, charting
                    // the uniform-vs-power-control feasibility gap
  kQueue,           // Bernoulli-arrival queueing simulation over the warm
                    // kernel (spec.dynamics: lambda, scheduler, slots);
                    // charts throughput / backlog / the stability indicator
  kRegret,          // Asgeirsson-Mitra no-regret capacity game over the warm
                    // kernel (spec.dynamics: learning rate, penalty, rounds)
};

// All tasks, in the canonical execution order.
std::vector<TaskKind> AllTasks();

// Short stable name of a task kind ("algorithm1", "queue", ...): the
// per-stage key used by StageStats ("task.<name>"), trace span names and
// the metric catalogue.
const char* TaskKindName(TaskKind kind);

struct BatchConfig {
  int threads = 0;  // worker threads; 0 = hardware concurrency
  std::vector<TaskKind> tasks = AllTasks();
  // Optional per-worker kernel arenas: worker t rebuilds every instance
  // kernel in arenas[t] instead of allocating a fresh KernelCache.  When
  // non-empty the span must cover the resolved thread count and outlive
  // every Run; results are bit-identical either way (the sweep runner uses
  // this to keep matrix slabs warm across an entire parameter grid).
  std::span<sinr::KernelArena> arenas = {};
  // Optional shared geometry cache: instances are configured from warm
  // ScenarioGeometry slots instead of re-sampled, so consecutive specs
  // that differ only in non-geometric fields (power_tau, beta, noise,
  // explicit zeta) skip space sampling and link pairing entirely.  The
  // cache must outlive every Run and must not be used by two concurrent
  // Runs; results are bit-identical with or without it (the sweep runner
  // shares one across a whole grid).
  GeometryCache* geometry = nullptr;
  // Link-pairing route inside instance builds; kSortGreedy forces the
  // O(n^2 log n) reference path (A/B baseline).  Result-invisible.
  PairingMode pairing = PairingMode::kAuto;
  // Fault injection: when >= 0, the worker that picks up this instance
  // index throws InjectedFault{fault_message} instead of running it.  The
  // sweep runner arms this per cell/attempt to exercise its failure
  // isolation and retry paths end to end, through the real worker pool.
  int fault_instance = -1;
  std::string fault_message = "injected fault";
};

// The exception an armed BatchConfig::fault_instance raises inside a
// worker.  Deliberately a plain runtime_error subtype: the recovery path
// must not be able to special-case it.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Per-instance outcome.  Algorithm fields are -1 when the task was not in
// the batch's task set; everything except `stages` is deterministic.
struct InstanceRecord {
  int index = -1;
  int links = 0;
  double zeta = 0.0;

  int alg1_size = -1;
  int alg1_admitted = -1;
  bool alg1_feasible = true;
  int greedy_size = -1;
  double weighted_value = -1.0;
  int weighted_size = -1;
  int partition_classes = -1;
  int schedule_slots = -1;
  bool schedule_valid = true;
  int pc_greedy_size = -1;   // greedy admission with the power-control oracle
  int pc_all_feasible = -1;  // 1 iff all links feasible under some power
  int pc_obstructed = -1;    // 1 iff some pair can never coexist
  // Dynamics tasks (negative when not run).  Both simulate over the warm
  // kernel with an rng stream deterministic in (spec.seed, instance index).
  double queue_throughput = -1.0;     // post-warmup served packets per slot
  double queue_mean_queue = -1.0;     // time-average backlog, post warmup
  double queue_backlog_growth = -1.0; // Q4/Q3 backlog ratio (~1 when stable)
  int queue_unstable = -1;  // 1 iff growth above threshold AND backlog
                            // non-trivial (> one slot of arrivals queued)
  double regret_successes = -1.0;     // mean concurrent successes in the tail
  double regret_transmit_rate = -1.0; // mean fraction of links transmitting

  // Wall clock, non-deterministic: one entry per span the instance ran --
  // geometry_build or geometry_reuse (sampling / cache acquire +
  // ConfigureInstance), kernel_build (KernelCache build or arena rebuild),
  // farfield_build (kernel_mode=farfield only) and task.<kind> per task
  // run.  A kind not in the task set has no entry.  Under kFarField the
  // dense kernel is built lazily, only when a task without a far-field path
  // runs; its kernel_build then nests inside that task's span.
  obs::StageStats stages;
};

// Running sum/min/max/count of one metric, reduced in instance order.
struct MetricSummary {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  long long count = 0;

  void Add(double v);
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  friend bool operator==(const MetricSummary&, const MetricSummary&) = default;
};

// One scenario family's batch outcome.
struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<InstanceRecord> instances;  // ordered by instance index
  // Deterministic aggregate: (metric name, summary) in a fixed order.
  std::vector<std::pair<std::string, MetricSummary>> aggregate;

  // Non-deterministic timing.
  double batch_wall_ms = 0.0;  // wall time of the whole batch section
  // Worker-summed per-stage breakdown: every instance's `stages`, merged in
  // instance order after the pool drains, plus batch_bookkeeping -- RunOne's
  // serial work around the pool (validation, setup, merge, aggregation).  Like every *_ms field it is
  // non-deterministic and never enters AggregateSignature.
  obs::StageStats stage_stats;

  double Throughput() const {  // instances per second of batch wall time
    return batch_wall_ms > 0.0
               ? 1000.0 * static_cast<double>(instances.size()) / batch_wall_ms
               : 0.0;
  }
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchConfig config = {});

  // Runs every instance of every spec through the pool; one KernelCache per
  // instance, all configured tasks against the warm cache.
  //
  // Runtime-input failures surface as core::StatusError: an invalid spec
  // (ValidateScenarioSpec) throws before any worker starts, and a worker
  // that throws -- injected fault or real -- is captured per instance, the
  // remaining instances still run, and the lowest failed index is rethrown
  // as kInternal after the pool drains (so the error is deterministic under
  // any thread count).  Contract violations (short arena span) stay
  // DL_CHECKs.
  std::vector<ScenarioResult> Run(std::span<const ScenarioSpec> specs) const;

  ScenarioResult RunOne(const ScenarioSpec& spec) const;

  const BatchConfig& config() const noexcept { return config_; }

 private:
  BatchConfig config_;
};

// Serialises the deterministic part of a report (spec identity + per-metric
// summaries, %.17g so doubles round-trip exactly).  Two runs of the same
// specs agree bit-for-bit on this string regardless of thread count.
std::string AggregateSignature(std::span<const ScenarioResult> results);

// The three layers reports group a stage breakdown into, in worker-summed
// ms: geometry (geometry_build + geometry_reuse), kernel (kernel_build +
// farfield_build) and tasks (every task.<kind>).  RunOne's own serial work
// (batch_bookkeeping: validation, setup, merge and aggregation) and the
// sweep-level stages (checkpoint_write, resume_restore) belong to none of
// them.
struct StageGroups {
  double geometry_ms = 0.0;
  double kernel_ms = 0.0;
  double task_ms = 0.0;
};
StageGroups GroupStages(const obs::StageStats& stats);

// The worker-pool size a config's `threads` value resolves to:
// the value itself when positive, hardware concurrency (min 1) at 0.
int ResolveThreads(int requested);

// Numeric-health check over a batch outcome: kNumericError naming the first
// aggregate whose populated summary (count > 0) carries a non-finite
// sum/min/max, Ok otherwise.  A NaN that leaks out of a kernel or simulator
// would silently poison every downstream mean; the sweep runner treats a
// failed check like any other cell failure.
core::Status AggregateHealth(const ScenarioResult& result);

}  // namespace decaylib::engine
