#include "traced_pass.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <optional>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "capacity/partitions.h"
#include "capacity/weighted.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "engine/report.h"
#include "geom/rng.h"
#include "obs/registry.h"
#include "scheduling/scheduler.h"
#include "sinr/farfield.h"
#include "sinr/kernel.h"
#include "sinr/power_control.h"
#include "sweep/checkpoint.h"
#include "sweep/sweep_report.h"

namespace perfbench {

namespace capacity = decaylib::capacity;
namespace distributed = decaylib::distributed;
namespace dynamics = decaylib::dynamics;
namespace geom = decaylib::geom;
namespace obs = decaylib::obs;
namespace scheduling = decaylib::scheduling;
namespace sinr = decaylib::sinr;
using engine::TaskKind;

namespace {

// --- engine logic rebuilt from batch_runner.cc (must stay in step) --------

geom::Rng TaskRng(const engine::ScenarioSpec& spec, std::uint64_t salt,
                  int index) {
  return geom::Rng(geom::Mix64(spec.seed ^ salt) +
                   0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(index) + 1));
}

constexpr std::uint64_t kWeightStreamSalt = 0xa5b35705f00dfeedULL;
constexpr std::uint64_t kQueueStreamSalt = 0x517cc1b727220a95ULL;
constexpr std::uint64_t kRegretStreamSalt = 0x2545f4914f6cdd1dULL;
constexpr int kPowerControlIterations = 300;
constexpr double kPowerControlTol = 1e-7;

// The engine's power-control greedy, counting oracle calls and verdicts.
std::vector<int> GreedyPowerControlFeasible(const sinr::KernelCache& kernel,
                                            PassTallies& tallies) {
  const double beta = kernel.system().config().beta;
  std::vector<int> S;
  for (const int v : kernel.OrderByDecay()) {
    bool obstructed = false;
    for (const int w : S) {
      if (sinr::PairwiseAffectanceProduct(kernel, v, w) > beta * beta) {
        obstructed = true;
        break;
      }
    }
    if (obstructed) continue;
    S.push_back(v);
    ++tallies.pc_calls;
    if (sinr::FeasibleWithPowerControl(kernel, S, kPowerControlIterations,
                                       kPowerControlTol)
            .feasible) {
      ++tallies.pc_feasible;
    } else {
      S.pop_back();
    }
  }
  return S;
}

// One instance through every layer, mirroring engine RunInstance.
InstanceOutputs RunInstance(const engine::ScenarioSpec& spec, int index,
                            const std::vector<TaskKind>& tasks,
                            engine::GeometryCache* cache,
                            sinr::KernelArena* arena, Tracer* tracer,
                            std::uint64_t trace_id, PassTallies& tallies) {
  const bool traced = tracer != nullptr;
  InstanceOutputs out;
  // Far-field sets kept for the exact re-check after the instance span.
  std::vector<std::vector<int>> farfield_sets;

  std::optional<engine::ScenarioGeometry> local_geometry;
  const engine::ScenarioGeometry* geometry = nullptr;
  std::optional<engine::ScenarioInstance> instance;
  std::optional<sinr::KernelCache> local_kernel;
  const sinr::KernelCache* kernel = nullptr;
  {
    ScopedSpan instance_span(tracer, "engine.instance", trace_id);
    if (cache != nullptr) {
      ScopedSpan span(tracer, "engine.geometry_cache", trace_id);
      bool built = false;
      geometry = &cache->Acquire(spec, index, engine::PairingMode::kAuto,
                                 &built);
      ++tallies.cache_acquires;
      if (built) {
        // A cold slot: the lookup was a BuildGeometry call.
        span.Rename("engine.geometry");
        ++tallies.geometry_builds;
      } else {
        ++tallies.cache_warm;
      }
    } else {
      {
        ScopedSpan span(tracer, "engine.geometry", trace_id);
        local_geometry.emplace(engine::BuildGeometry(spec, index));
        ++tallies.geometry_builds;
      }
      if (spec.zeta < 0.0) {
        ScopedSpan span(tracer, "core.metricity", trace_id);
        engine::EnsureMeasuredZeta(*local_geometry);
        ++tallies.metricity_calls;
      }
      geometry = &*local_geometry;
    }
    const double nodes = 2.0 * spec.links;
    tallies.decay_matrix_bytes =
        std::max(tallies.decay_matrix_bytes, 8.0 * nodes * nodes);
    {
      ScopedSpan span(tracer, "engine.configure", trace_id);
      instance.emplace(engine::ConfigureInstance(spec, *geometry));
    }
    const sinr::LinkSystem& system = instance->system();

    const auto ensure_kernel = [&]() -> const sinr::KernelCache& {
      if (kernel == nullptr) {
        ScopedSpan span(tracer, "sinr.kernel_build", trace_id);
        if (arena != nullptr) {
          const long long warm = arena->warm_skips();
          kernel = &arena->Rebuild(system, instance->power());
          tallies.kernel_warm += arena->warm_skips() - warm;
        } else {
          local_kernel.emplace(system, instance->power());
          kernel = &*local_kernel;
        }
        ++tallies.kernel_builds;
        tallies.kernel_bytes = std::max(
            tallies.kernel_bytes, static_cast<double>(kernel->MemoryBytes()));
      }
      return *kernel;
    };

    std::optional<sinr::FarFieldKernel> farfield;
    if (spec.kernel_mode == engine::KernelMode::kFarField) {
      ScopedSpan span(tracer, "sinr.farfield_build", trace_id);
      sinr::FarFieldConfig fc;
      fc.epsilon = spec.farfield_epsilon;
      farfield.emplace(geometry->points, system.links(), spec.alpha,
                       system.config(), instance->power(), fc);
      ++tallies.farfield_builds;
      tallies.farfield_bytes = std::max(
          tallies.farfield_bytes, static_cast<double>(farfield->MemoryBytes()));
    } else {
      ensure_kernel();
    }
    out.zeta = instance->zeta();
    const double zeta = out.zeta;
    const std::vector<int> all = sinr::AllLinks(system);

    std::optional<capacity::Algorithm1Result> alg1;
    const auto ensure_alg1 = [&] {
      if (!alg1) alg1 = capacity::RunAlgorithm1(ensure_kernel(), zeta);
    };

    for (const TaskKind task : tasks) {
      switch (task) {
        case TaskKind::kAlgorithm1: {
          if (farfield) {
            ScopedSpan span(tracer, "sinr.farfield_admission", trace_id);
            sinr::FarFieldAlg1Result res =
                sinr::FarFieldRunAlgorithm1(*farfield, zeta);
            out.alg1_size = static_cast<int>(res.selected.size());
            out.alg1_admitted = static_cast<int>(res.admitted.size());
            out.alg1_feasible = res.selected.size() <= 1 ||
                                farfield->IsFeasibleCertified(res.selected);
            farfield_sets.push_back(std::move(res.selected));
          } else {
            ScopedSpan span(tracer, "capacity.algorithm1", trace_id);
            ensure_alg1();
            out.alg1_size = static_cast<int>(alg1->selected.size());
            out.alg1_admitted = static_cast<int>(alg1->admitted.size());
            out.alg1_feasible = alg1->selected.size() <= 1 ||
                                kernel->IsFeasible(alg1->selected);
          }
          tallies.alg1_selected += out.alg1_size;
          tallies.alg1_admitted += out.alg1_admitted;
          break;
        }
        case TaskKind::kGreedyBaseline: {
          if (farfield) {
            ScopedSpan span(tracer, "sinr.farfield_admission", trace_id);
            std::vector<int> greedy = sinr::FarFieldGreedyFeasible(*farfield);
            out.greedy_size = static_cast<int>(greedy.size());
            farfield_sets.push_back(std::move(greedy));
          } else {
            const sinr::KernelCache& k = ensure_kernel();
            ScopedSpan span(tracer, "capacity.greedy", trace_id);
            out.greedy_size =
                static_cast<int>(capacity::GreedyFeasible(k, all).size());
          }
          break;
        }
        case TaskKind::kWeighted: {
          const sinr::KernelCache& k = ensure_kernel();
          ScopedSpan span(tracer, "capacity.weighted", trace_id);
          geom::Rng rng = TaskRng(spec, kWeightStreamSalt, index);
          std::vector<double> weights(all.size());
          for (double& w : weights) w = rng.Uniform(0.5, 2.0);
          out.weighted_value =
              capacity::WeightedAlgorithm1(k, weights, zeta).weight;
          break;
        }
        case TaskKind::kPartitions: {
          const sinr::KernelCache& k = ensure_kernel();
          ScopedSpan span(tracer, "capacity.partitions", trace_id);
          ensure_alg1();
          out.partition_classes = static_cast<int>(
              capacity::Lemma41Partition(k, alg1->selected, zeta).size());
          break;
        }
        case TaskKind::kSchedule: {
          if (farfield) {
            ScopedSpan span(tracer, "sinr.farfield_admission", trace_id);
            sinr::FarFieldSchedule schedule =
                sinr::FarFieldScheduleLinks(*farfield, zeta);
            out.schedule_slots = static_cast<int>(schedule.slots.size());
            out.schedule_valid =
                sinr::FarFieldValidateSchedule(*farfield, schedule, all);
            for (std::vector<int>& slot : schedule.slots) {
              farfield_sets.push_back(std::move(slot));
            }
          } else {
            const sinr::KernelCache& k = ensure_kernel();
            scheduling::Schedule schedule;
            {
              ScopedSpan span(tracer, "scheduling.schedule", trace_id);
              schedule = scheduling::ScheduleLinks(
                  k, zeta, scheduling::Extractor::kAlgorithm1, all);
            }
            ScopedSpan span(tracer, "scheduling.validate", trace_id);
            out.schedule_slots = schedule.Length();
            out.schedule_valid = scheduling::ValidateSchedule(k, schedule, all);
          }
          tallies.schedule_slots += out.schedule_slots;
          break;
        }
        case TaskKind::kPowerControl: {
          const sinr::KernelCache& k = ensure_kernel();
          ScopedSpan span(tracer, "sinr.power_control", trace_id);
          out.pc_greedy_size =
              static_cast<int>(GreedyPowerControlFeasible(k, tallies).size());
          ++tallies.pc_calls;
          if (sinr::FeasibleWithPowerControl(k, all, kPowerControlIterations,
                                             kPowerControlTol)
                  .feasible) {
            ++tallies.pc_feasible;
          }
          sinr::HasPairwiseObstruction(k, all);
          break;
        }
        case TaskKind::kQueue: {
          const sinr::KernelCache& k = ensure_kernel();
          ScopedSpan span(tracer, "dynamics.queue", trace_id);
          dynamics::QueueConfig qc;
          qc.arrival_rates.assign(all.size(), spec.dynamics.lambda);
          qc.scheduler = spec.dynamics.scheduler;
          qc.slots = spec.dynamics.queue_slots;
          qc.warmup = spec.dynamics.queue_slots / 10;
          geom::Rng rng = TaskRng(spec, kQueueStreamSalt, index);
          out.queue_throughput =
              dynamics::RunQueueSimulation(k, qc, rng).throughput;
          tallies.queue_slots += qc.slots;
          break;
        }
        case TaskKind::kRegret: {
          const sinr::KernelCache& k = ensure_kernel();
          ScopedSpan span(tracer, "distributed.regret", trace_id);
          distributed::RegretConfig rc;
          rc.learning_rate = spec.dynamics.regret_learning_rate;
          rc.failure_penalty = spec.dynamics.regret_penalty;
          rc.rounds = spec.dynamics.regret_rounds;
          rc.measure_tail = std::max(1, spec.dynamics.regret_rounds / 4);
          geom::Rng rng = TaskRng(spec, kRegretStreamSalt, index);
          out.regret_successes =
              distributed::RunRegretGame(k, rc, rng).average_successes;
          tallies.regret_rounds += rc.rounds;
          break;
        }
      }
    }
  }
  ++tallies.instances;

  if (traced) {
    // The far-field contract, outside every timed span: each admitted set
    // and schedule slot is feasible under the exact dense-space check.
    for (const std::vector<int>& set : farfield_sets) {
      if (set.size() <= 1) continue;
      ++tallies.contract_sets;
      if (!instance->system().IsFeasible(set, instance->power())) {
        ++tallies.contract_violations;
      }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& TracedCounters() {
  static const std::vector<std::string> counters = {
      "sinr.admission_checks",
      "sinr.farfield_admission_checks",
      "sinr.farfield_certified_accepts",
      "sinr.farfield_certified_rejects",
      "sinr.farfield_exact_fallbacks",
      "sinr.farfield_refined_cells",
  };
  return counters;
}

InstanceOutputs OutputsOf(const engine::InstanceRecord& record) {
  InstanceOutputs out;
  out.zeta = record.zeta;
  out.alg1_size = record.alg1_size;
  out.alg1_admitted = record.alg1_admitted;
  out.alg1_feasible = record.alg1_feasible;
  out.greedy_size = record.greedy_size;
  out.weighted_value = record.weighted_value;
  out.partition_classes = record.partition_classes;
  out.schedule_slots = record.schedule_slots;
  out.schedule_valid = record.schedule_valid;
  out.pc_greedy_size = record.pc_greedy_size;
  out.queue_throughput = record.queue_throughput;
  out.regret_successes = record.regret_successes;
  return out;
}

std::string CompareOutputs(const InstanceOutputs& traced,
                           const InstanceOutputs& untraced) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  if (!same(traced.zeta, untraced.zeta)) return "zeta";
  if (traced.alg1_size != untraced.alg1_size) return "alg1_size";
  if (traced.alg1_admitted != untraced.alg1_admitted) return "alg1_admitted";
  if (traced.alg1_feasible != untraced.alg1_feasible) return "alg1_feasible";
  if (traced.greedy_size != untraced.greedy_size) return "greedy_size";
  if (!same(traced.weighted_value, untraced.weighted_value)) {
    return "weighted_value";
  }
  if (traced.partition_classes != untraced.partition_classes) {
    return "partition_classes";
  }
  if (traced.schedule_slots != untraced.schedule_slots) return "schedule_slots";
  if (traced.schedule_valid != untraced.schedule_valid) return "schedule_valid";
  if (traced.pc_greedy_size != untraced.pc_greedy_size) return "pc_greedy_size";
  if (!same(traced.queue_throughput, untraced.queue_throughput)) {
    return "queue_throughput";
  }
  if (!same(traced.regret_successes, untraced.regret_successes)) {
    return "regret_successes";
  }
  return "";
}

PassResult RunSerialPass(const Workload& workload, const EngineRun& untraced,
                         Tracer* tracer) {
  const bool traced = tracer != nullptr;
  obs::SetEnabled(traced);
  PassResult pass;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t trace_id = 0;
  {
    ScopedSpan root(tracer, "workload." + workload.name, 0);
    if (workload.is_sweep) {
      // The sweep runner's shared state: one geometry cache generation and
      // (one worker, so) one kernel arena across the whole grid.
      engine::GeometryCache cache;
      sinr::KernelArena arena;
      sweep::SweepCheckpoint doc;
      doc.sweep = workload.sweep.name;
      doc.spec_hash = sweep::SweepSpecHash(workload.sweep);
      const std::string checkpoint = workload.name + ".checkpoint.json";
      const std::vector<sweep::SweepCell> cells =
          sweep::ExpandGrid(workload.sweep);
      doc.grid = static_cast<long long>(cells.size());
      const auto save = [&] {
        ScopedSpan span(tracer, "sweep.checkpoint", 0);
        decaylib::core::ThrowIfError(sweep::SaveCheckpoint(checkpoint, doc));
      };
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const engine::ScenarioSpec& spec = cells[c].spec;
        cache.Prepare(spec);
        for (int i = 0; i < spec.instances; ++i) {
          pass.outputs.push_back(RunInstance(spec, i, workload.tasks, &cache,
                                             &arena, tracer, ++trace_id,
                                             pass.tallies));
        }
        const engine::ScenarioResult& result = untraced.sweep.cells[c].result;
        sweep::CheckpointCell saved;
        saved.index = cells[c].index;
        saved.instances = static_cast<int>(result.instances.size());
        saved.aggregate = result.aggregate;
        doc.cells.push_back(std::move(saved));
        save();
      }
      save();
      pass.tallies.checkpoint_bytes =
          static_cast<double>(std::filesystem::file_size(checkpoint));
      ScopedSpan span(tracer, "sweep.report", 0);
      if (!sweep::WriteSweepCsvFile(untraced.sweep, workload.name + ".csv") ||
          !sweep::WriteSweepJsonReport(workload.name,
                                       std::span(&untraced.sweep, 1))) {
        throw decaylib::core::StatusError(
            decaylib::core::Status::IoError("report writing failed"));
      }
    } else {
      for (const engine::ScenarioSpec& spec : workload.specs) {
        for (int i = 0; i < spec.instances; ++i) {
          pass.outputs.push_back(RunInstance(spec, i, workload.tasks, nullptr,
                                             nullptr, tracer, ++trace_id,
                                             pass.tallies));
        }
      }
      ScopedSpan span(tracer, "sweep.report", 0);
      if (!engine::WriteJsonReport(workload.name, untraced.batch)) {
        throw decaylib::core::StatusError(
            decaylib::core::Status::IoError("report writing failed"));
      }
    }
  }
  pass.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  obs::SetEnabled(false);
  return pass;
}

}  // namespace perfbench
