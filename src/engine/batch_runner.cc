#include "engine/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/partitions.h"
#include "capacity/weighted.h"
#include "core/check.h"
#include "core/workers.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "geom/rng.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scheduling/scheduler.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power_control.h"

namespace decaylib::engine {

namespace {

// Registry handles of the engine layer, resolved once.  Counters/histograms
// only tick when obs::Enabled(); the stage breakdown the same spans feed is
// populated always.  Metric name catalogue: docs/observability.md.
struct EngineInstruments {
  obs::Counter& instances;
  obs::Counter& geometry_builds;
  obs::Counter& geometry_reuses;
  obs::Histogram& geometry_ms;
  obs::Histogram& kernel_build_ms;
  obs::Histogram& farfield_build_ms;
  obs::Histogram& instance_task_ms;
  obs::Gauge& threads;

  static EngineInstruments& Get() {
    static EngineInstruments* instruments = [] {
      obs::Registry& registry = obs::Registry::Global();
      return new EngineInstruments{
          registry.GetCounter("engine.instances"),
          registry.GetCounter("engine.geometry_builds"),
          registry.GetCounter("engine.geometry_reuses"),
          registry.GetHistogram("engine.geometry_ms"),
          registry.GetHistogram("engine.kernel_build_ms"),
          registry.GetHistogram("engine.farfield_build_ms"),
          registry.GetHistogram("engine.instance_task_ms"),
          registry.GetGauge("engine.threads"),
      };
    }();
    return *instruments;
  }
};

// Per-task rng streams: independent of the instance builder's stream and of
// each other (distinct salts), deterministic in (spec.seed, index) -- a
// worker's identity never reaches any task's randomness.
geom::Rng TaskRng(const ScenarioSpec& spec, std::uint64_t salt, int index) {
  return geom::Rng(geom::Mix64(spec.seed ^ salt) +
                   0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(index) + 1));
}

// The stage of RunOne's serial work outside the worker pool.
constexpr const char* kBookkeepingStage = "batch_bookkeeping";

constexpr std::uint64_t kWeightStreamSalt = 0xa5b35705f00dfeedULL;
constexpr std::uint64_t kQueueStreamSalt = 0x517cc1b727220a95ULL;
constexpr std::uint64_t kRegretStreamSalt = 0x2545f4914f6cdd1dULL;

// Per-instance task weights for the weighted-capacity task.
std::vector<double> InstanceWeights(const ScenarioSpec& spec, int index,
                                    int n) {
  geom::Rng rng = TaskRng(spec, kWeightStreamSalt, index);
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (double& w : weights) w = rng.Uniform(0.5, 2.0);
  return weights;
}

// Builds the instance, warms its kernel once, and runs every configured
// task against it.  Deterministic in (spec, index, tasks); the arena and
// geometry cache, when provided, only change where matrices live and
// whether sampling re-runs -- never the bits of any result.
InstanceRecord RunInstance(const ScenarioSpec& spec, int index,
                           const BatchConfig& config,
                           sinr::KernelArena* arena) {
  const std::vector<TaskKind>& tasks = config.tasks;
  GeometryCache* geometry = config.geometry;
  const PairingMode pairing = config.pairing;
  if (index == config.fault_instance) {
    throw InjectedFault(config.fault_message);
  }
  InstanceRecord rec;
  rec.index = index;
  EngineInstruments& ins = EngineInstruments::Get();

  // Every stage is one obs::Span with the record's StageStats as its sink:
  // the breakdown is measured always, while the trace events and registry
  // histograms of the same spans stay opt-in (obs::Enabled()).
  obs::Span instance_span("instance");
  // The geometry is kept alive alongside the configured instance: the
  // far-field kernel is built from its planar points (matrix-free), which
  // ConfigureInstance does not carry over.
  std::optional<ScenarioGeometry> local_geom;
  const ScenarioGeometry* geom_ptr = nullptr;
  std::optional<ScenarioInstance> built;
  {
    obs::Span span("geometry_build", &ins.geometry_ms, "stage", &rec.stages);
    bool sampled = true;
    if (geometry != nullptr) {
      geom_ptr = &geometry->Acquire(spec, index, pairing, &sampled);
    } else {
      // Exactly BuildInstance's route, with the geometry retained.
      local_geom.emplace(BuildGeometry(spec, index, pairing));
      if (spec.zeta < 0.0) EnsureMeasuredZeta(*local_geom);
      geom_ptr = &*local_geom;
    }
    built.emplace(ConfigureInstance(spec, *geom_ptr));
    if (sampled) {
      ins.geometry_builds.Add();
    } else {
      span.Rename("geometry_reuse");
      ins.geometry_reuses.Add();
    }
  }
  const ScenarioInstance& instance = *built;

  // The dense kernel: built eagerly under kDense, lazily under kFarField
  // (only a task without a far-field path pays the O(n^2) slabs; its span
  // then nests inside that task's).
  std::optional<sinr::KernelCache> local;
  const sinr::KernelCache* kernel_ptr = nullptr;
  const auto ensure_kernel = [&]() -> const sinr::KernelCache& {
    if (kernel_ptr == nullptr) {
      obs::Span span("kernel_build", &ins.kernel_build_ms, "stage",
                     &rec.stages);
      if (arena != nullptr) {
        kernel_ptr = &arena->Rebuild(instance.system(), instance.power());
      } else {
        local.emplace(instance.system(), instance.power());
        kernel_ptr = &*local;
      }
    }
    return *kernel_ptr;
  };

  std::optional<sinr::FarFieldKernel> farfield;
  if (spec.kernel_mode == KernelMode::kFarField) {
    DL_CHECK(!geom_ptr->points.empty(),
             "kernel_mode=farfield needs a coordinate-backed topology");
    obs::Span span("farfield_build", &ins.farfield_build_ms, "stage",
                   &rec.stages);
    sinr::FarFieldConfig fc;
    fc.epsilon = spec.farfield_epsilon;
    farfield.emplace(geom_ptr->points, instance.system().links(), spec.alpha,
                     instance.system().config(), instance.power(), fc);
  } else {
    ensure_kernel();
  }
  rec.links = instance.NumLinks();
  rec.zeta = instance.zeta();

  const std::vector<int> all = sinr::AllLinks(instance.system());
  const double zeta = instance.zeta();

  // The tasks run once, against whichever kernel the instance built: the
  // admission tasks (algorithm1, greedy, schedule) on `admission_kernel`,
  // the rest on the dense kernel, which under kFarField is built on first
  // use.  Algorithm 1's feasible set feeds the partition task too; run it at
  // most once per instance.
  std::optional<capacity::Algorithm1Result> alg1;
  const auto run_tasks = [&](const auto& admission_kernel) {
    const auto ensure_alg1 = [&] {
      if (!alg1) alg1 = capacity::RunAlgorithm1(admission_kernel, zeta, all);
    };

    for (const TaskKind task : tasks) {
      obs::Span task_span(std::string("task.") + TaskKindName(task),
                          &ins.instance_task_ms, "task", &rec.stages);
      switch (task) {
        case TaskKind::kAlgorithm1: {
          ensure_alg1();
          rec.alg1_size = static_cast<int>(alg1->selected.size());
          rec.alg1_admitted = static_cast<int>(alg1->admitted.size());
          rec.alg1_feasible =
              alg1->selected.size() <= 1 ||
              sinr::IsFeasibleSet(admission_kernel, alg1->selected);
          break;
        }
        case TaskKind::kGreedyBaseline: {
          rec.greedy_size = static_cast<int>(
              capacity::GreedyFeasible(admission_kernel, all).size());
          break;
        }
        case TaskKind::kWeighted: {
          const std::vector<double> weights =
              InstanceWeights(spec, index, rec.links);
          const capacity::WeightedResult res =
              capacity::WeightedAlgorithm1(ensure_kernel(), weights, zeta);
          rec.weighted_value = res.weight;
          rec.weighted_size = static_cast<int>(res.selected.size());
          break;
        }
        case TaskKind::kPartitions: {
          ensure_alg1();
          rec.partition_classes = static_cast<int>(
              capacity::Lemma41Partition(ensure_kernel(), alg1->selected, zeta)
                  .size());
          break;
        }
        case TaskKind::kSchedule: {
          const scheduling::Schedule schedule = scheduling::ScheduleLinks(
              admission_kernel, zeta, scheduling::Extractor::kAlgorithm1, all);
          rec.schedule_slots = schedule.Length();
          rec.schedule_valid =
              scheduling::ValidateSchedule(admission_kernel, schedule, all);
          break;
        }
        case TaskKind::kPowerControl: {
          const sinr::KernelCache& kernel = ensure_kernel();
          rec.pc_greedy_size =
              static_cast<int>(sinr::GreedyPowerControlFeasible(kernel).size());
          rec.pc_all_feasible =
              sinr::FeasibleWithPowerControl(
                  kernel, all, sinr::kGreedyPowerControlIterations,
                  sinr::kGreedyPowerControlTol)
                      .feasible
                  ? 1
                  : 0;
          rec.pc_obstructed = sinr::HasPairwiseObstruction(kernel, all) ? 1 : 0;
          break;
        }
        case TaskKind::kQueue: {
          dynamics::QueueConfig qc;
          qc.arrival_rates.assign(static_cast<std::size_t>(rec.links),
                                  spec.dynamics.lambda);
          qc.scheduler = spec.dynamics.scheduler;
          qc.slots = spec.dynamics.queue_slots;
          qc.warmup = spec.dynamics.queue_slots / 10;
          geom::Rng rng = TaskRng(spec, kQueueStreamSalt, index);
          const dynamics::QueueStats stats =
              dynamics::RunQueueSimulation(ensure_kernel(), qc, rng);
          rec.queue_throughput = stats.throughput;
          rec.queue_mean_queue = stats.mean_queue;
          rec.queue_backlog_growth = stats.backlog_growth;
          // Growth alone misfires on near-empty queues (the ratio of two tiny
          // backlog sums is noise): flag unstable only when the backlog is
          // also non-trivial -- more than one slot's worth of arrivals queued
          // on time-average.
          rec.queue_unstable =
              stats.backlog_growth > dynamics::kUnstableGrowthThreshold &&
                      stats.mean_queue > stats.offered_load
                  ? 1
                  : 0;
          break;
        }
        case TaskKind::kRegret: {
          distributed::RegretConfig rc;
          rc.learning_rate = spec.dynamics.regret_learning_rate;
          rc.failure_penalty = spec.dynamics.regret_penalty;
          rc.rounds = spec.dynamics.regret_rounds;
          rc.measure_tail = std::max(1, spec.dynamics.regret_rounds / 4);
          geom::Rng rng = TaskRng(spec, kRegretStreamSalt, index);
          const distributed::RegretResult res =
              distributed::RunRegretGame(ensure_kernel(), rc, rng);
          rec.regret_successes = res.average_successes;
          rec.regret_transmit_rate = res.transmit_rate;
          break;
        }
      }
    }
  };
  if (farfield) {
    run_tasks(*farfield);
  } else {
    run_tasks(ensure_kernel());
  }
  return rec;
}

// Sequential, instance-ordered reduction of the deterministic metrics.
void Aggregate(ScenarioResult& result) {
  MetricSummary zeta, alg1_size, alg1_admitted, greedy_size, weighted_value,
      weighted_size, partition_classes, schedule_slots, alg1_infeasible,
      schedule_invalid, pc_greedy_size, pc_all_feasible, pc_obstructed,
      pc_gain, queue_throughput, queue_mean_queue, queue_backlog_growth,
      queue_unstable, regret_successes, regret_transmit_rate;
  for (const InstanceRecord& rec : result.instances) {
    zeta.Add(rec.zeta);
    if (rec.alg1_size >= 0) {
      alg1_size.Add(rec.alg1_size);
      alg1_admitted.Add(rec.alg1_admitted);
      alg1_infeasible.Add(rec.alg1_feasible ? 0.0 : 1.0);
    }
    if (rec.greedy_size >= 0) greedy_size.Add(rec.greedy_size);
    if (rec.weighted_size >= 0) {
      weighted_value.Add(rec.weighted_value);
      weighted_size.Add(rec.weighted_size);
    }
    if (rec.partition_classes >= 0) {
      partition_classes.Add(rec.partition_classes);
    }
    if (rec.schedule_slots >= 0) {
      schedule_slots.Add(rec.schedule_slots);
      schedule_invalid.Add(rec.schedule_valid ? 0.0 : 1.0);
    }
    if (rec.pc_greedy_size >= 0) {
      pc_greedy_size.Add(rec.pc_greedy_size);
      pc_all_feasible.Add(rec.pc_all_feasible);
      pc_obstructed.Add(rec.pc_obstructed);
      // The feasibility gap, per instance, when the uniform greedy also ran.
      if (rec.greedy_size >= 0) {
        pc_gain.Add(rec.pc_greedy_size - rec.greedy_size);
      }
    }
    if (rec.queue_throughput >= 0.0) {
      queue_throughput.Add(rec.queue_throughput);
      queue_mean_queue.Add(rec.queue_mean_queue);
      queue_backlog_growth.Add(rec.queue_backlog_growth);
      queue_unstable.Add(rec.queue_unstable);
    }
    if (rec.regret_successes >= 0.0) {
      regret_successes.Add(rec.regret_successes);
      regret_transmit_rate.Add(rec.regret_transmit_rate);
    }
  }
  result.aggregate = {
      {"zeta", zeta},
      {"alg1_size", alg1_size},
      {"alg1_admitted", alg1_admitted},
      {"alg1_infeasible", alg1_infeasible},
      {"greedy_size", greedy_size},
      {"weighted_value", weighted_value},
      {"weighted_size", weighted_size},
      {"partition_classes", partition_classes},
      {"schedule_slots", schedule_slots},
      {"schedule_invalid", schedule_invalid},
      {"pc_greedy_size", pc_greedy_size},
      {"pc_all_feasible", pc_all_feasible},
      {"pc_obstructed", pc_obstructed},
      {"pc_gain_vs_uniform", pc_gain},
      {"queue_throughput", queue_throughput},
      {"queue_mean_queue", queue_mean_queue},
      {"queue_backlog_growth", queue_backlog_growth},
      {"queue_unstable", queue_unstable},
      {"regret_successes", regret_successes},
      {"regret_transmit_rate", regret_transmit_rate},
  };
}

}  // namespace

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kAlgorithm1: return "algorithm1";
    case TaskKind::kGreedyBaseline: return "greedy";
    case TaskKind::kWeighted: return "weighted";
    case TaskKind::kPartitions: return "partitions";
    case TaskKind::kSchedule: return "schedule";
    case TaskKind::kPowerControl: return "power_control";
    case TaskKind::kQueue: return "queue";
    case TaskKind::kRegret: return "regret";
  }
  return "unknown";
}

std::vector<TaskKind> AllTasks() {
  return {TaskKind::kAlgorithm1, TaskKind::kGreedyBaseline,
          TaskKind::kWeighted,   TaskKind::kPartitions,
          TaskKind::kSchedule,   TaskKind::kPowerControl,
          TaskKind::kQueue,      TaskKind::kRegret};
}

StageGroups GroupStages(const obs::StageStats& stats) {
  StageGroups groups;
  for (const obs::StageStats::Stage& s : stats.stages) {
    if (s.name == "geometry_build" || s.name == "geometry_reuse") {
      groups.geometry_ms += s.total_ms;
    } else if (s.name == "kernel_build" || s.name == "farfield_build") {
      groups.kernel_ms += s.total_ms;
    } else if (s.name.starts_with("task.")) {
      groups.task_ms += s.total_ms;
    }
  }
  return groups;
}

int ResolveThreads(int requested) {
  return requested > 0 ? requested : core::HardwareThreads();
}

void MetricSummary::Add(double v) {
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++count;
}

BatchRunner::BatchRunner(BatchConfig config) : config_(std::move(config)) {}

ScenarioResult BatchRunner::RunOne(const ScenarioSpec& spec) const {
  ScenarioResult result;
  // RunOne's own serial work around the pool -- validation and setup here,
  // the merge and aggregation after it -- is timed as one stage, so a
  // serial run's stages account for its wall time.
  obs::Span setup_span(kBookkeepingStage, nullptr, "stage",
                       &result.stage_stats);
  // Runtime input is rejected as a recoverable error before any worker
  // starts; an invalid lambda, say, would otherwise flow straight into
  // Rng::Chance and silently distort the Bernoulli arrival process.
  core::ThrowIfError(ValidateScenarioSpec(spec));
  result.spec = spec;
  result.instances.resize(static_cast<std::size_t>(spec.instances));

  int threads = ResolveThreads(config_.threads);
  DL_CHECK(config_.arenas.empty() ||
               static_cast<int>(config_.arenas.size()) >= threads,
           "arena span must cover every worker thread");
  threads = std::min(threads, spec.instances);
  // Measured-zeta specs (>= 64 nodes) run their instances serially to
  // bound memory: every concurrent instance holds its own non-geometric
  // decay matrix, kernel and metricity scratch, and
  // pooling the 4-instance, 384-node perfbench shadowed_power batch on 4
  // workers (4-core x86-64 host) measured 17.4 MB peak RSS against 14.2 MB
  // serial (+22%), for 0.32-0.39 s instead of 0.83-0.90 s wall.  The
  // aggregate is thread-count invariant either way.
  if (spec.zeta < 0.0 && 2 * spec.links >= 64) threads = 1;

  // Adopt the cell's geometry key before workers start: slots invalidate
  // exactly when a geometry field changed, and the pool join below orders
  // this against every worker's Acquire.
  if (config_.geometry != nullptr) config_.geometry->Prepare(spec);

  EngineInstruments::Get().threads.Set(threads);
  setup_span.Finish();
  obs::Span batch_span("batch." + spec.name, nullptr, "batch");
  // Work stealing over instance indices; records land in their own slot, so
  // nothing about the interleaving survives into the results.  A worker
  // that throws records the failure in its instance's slot and keeps
  // stealing -- every instance gets its attempt regardless of scheduling,
  // so the lowest failed index (the one rethrown below) is deterministic
  // under any thread count.
  std::vector<std::string> errors(static_cast<std::size_t>(spec.instances));
  std::vector<char> failed(static_cast<std::size_t>(spec.instances), 0);
  std::atomic<int> next{0};
  const auto worker = [&](int t) {
    sinr::KernelArena* arena =
        t < static_cast<int>(config_.arenas.size()) ? &config_.arenas[t]
                                                    : nullptr;
    for (int i = next.fetch_add(1); i < spec.instances;
         i = next.fetch_add(1)) {
      const std::size_t slot = static_cast<std::size_t>(i);
      try {
        result.instances[slot] = RunInstance(spec, i, config_, arena);
      } catch (const std::exception& e) {
        failed[slot] = 1;
        errors[slot] = e.what();
      } catch (...) {
        failed[slot] = 1;
        errors[slot] = "unknown exception";
      }
    }
  };
  core::RunWorkers(threads, worker);
  result.batch_wall_ms = batch_span.Finish();

  obs::Span reduce_span(kBookkeepingStage, nullptr, "stage",
                        &result.stage_stats);
  for (int i = 0; i < spec.instances; ++i) {
    if (failed[static_cast<std::size_t>(i)]) {
      throw core::StatusError(core::Status::Internal(
          "instance " + std::to_string(i) + ": " +
          errors[static_cast<std::size_t>(i)]));
    }
  }

  EngineInstruments::Get().instances.Add(spec.instances);
  for (const InstanceRecord& rec : result.instances) {
    result.stage_stats.Merge(rec.stages);
  }
  Aggregate(result);
  reduce_span.Finish();
  return result;
}

std::vector<ScenarioResult> BatchRunner::Run(
    std::span<const ScenarioSpec> specs) const {
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) results.push_back(RunOne(spec));
  return results;
}

core::Status AggregateHealth(const ScenarioResult& result) {
  for (const auto& [name, m] : result.aggregate) {
    if (m.count <= 0) continue;  // empty summaries keep their inf sentinels
    if (!std::isfinite(m.sum) || !std::isfinite(m.min) ||
        !std::isfinite(m.max)) {
      return core::Status::NumericError("non-finite aggregate " + name);
    }
  }
  return core::Status::Ok();
}

std::string AggregateSignature(std::span<const ScenarioResult> results) {
  std::string out;
  char buf[256];
  for (const ScenarioResult& r : results) {
    std::snprintf(buf, sizeof(buf), "%s topology=%s links=%d instances=%zu\n",
                  r.spec.name.c_str(), r.spec.topology.c_str(), r.spec.links,
                  r.instances.size());
    out += buf;
    for (const auto& [name, m] : r.aggregate) {
      std::snprintf(buf, sizeof(buf),
                    "  %s sum=%.17g min=%.17g max=%.17g count=%lld\n",
                    name.c_str(), m.sum, m.min, m.max, m.count);
      out += buf;
    }
  }
  return out;
}

}  // namespace decaylib::engine
