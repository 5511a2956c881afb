#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "io/json.h"

namespace perfbench {

namespace io = decaylib::io;

const std::vector<MetricInfo>& EndToEndMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"wall_s", "s", "lower", "", "all"},
      {"cpu_s", "s", "lower", "", "all"},
      {"peak_rss_mb", "MB", "lower", "", "all"},
      {"setup_s", "s", "lower", "", "all"},
  };
  return metrics;
}

const std::vector<MetricInfo>& PerLayerMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"engine.instance.self_ms", "ms", "lower", "wall_s", "all"},
      {"engine.geometry.self_ms", "ms", "lower", "wall_s",
       "farfield_large, dense_sweep"},
      {"engine.geometry.calls", "count", "lower", "wall_s",
       "farfield_large, dense_sweep"},
      {"engine.geometry.bytes", "bytes", "lower", "peak_rss_mb",
       "farfield_large"},
      {"engine.geometry_cache.self_ms", "ms", "lower", "wall_s",
       "dense_sweep, stability_sweep"},
      {"engine.geometry_cache.hit_ratio", "ratio", "higher", "wall_s",
       "dense_sweep, stability_sweep"},
      {"engine.configure.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"engine.pool.speedup", "ratio", "higher", "wall_s",
       "shadowed_power, farfield_large"},
      {"core.metricity.self_ms", "ms", "lower", "wall_s, cpu_s",
       "shadowed_power"},
      {"core.metricity.calls", "count", "lower", "wall_s, cpu_s",
       "shadowed_power"},
      {"sinr.kernel_build.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"sinr.kernel_build.calls", "count", "lower", "wall_s", "dense_sweep"},
      {"sinr.kernel_build.bytes", "bytes", "lower", "peak_rss_mb",
       "dense_sweep"},
      {"sinr.kernel_build.warm_ratio", "ratio", "higher", "wall_s",
       "dense_sweep"},
      {"sinr.farfield_build.self_ms", "ms", "lower", "wall_s",
       "farfield_large"},
      {"sinr.farfield_build.bytes", "bytes", "lower", "peak_rss_mb",
       "farfield_large"},
      {"sinr.farfield_admission.self_ms", "ms", "lower", "wall_s",
       "farfield_large"},
      {"sinr.farfield_admission.checks", "count", "lower", "wall_s",
       "farfield_large"},
      {"sinr.farfield_admission.certified_ratio", "ratio", "higher", "wall_s",
       "farfield_large"},
      {"sinr.farfield_admission.exact_fallbacks", "count", "lower", "wall_s",
       "farfield_large"},
      {"sinr.farfield_admission.refined_cells", "count", "lower", "wall_s",
       "farfield_large"},
      {"sinr.farfield_contract.sets", "count", "higher", "none (correctness)",
       "farfield_large"},
      {"sinr.farfield_contract.violations", "count", "lower",
       "none (correctness)", "farfield_large"},
      {"sinr.power_control.self_ms", "ms", "lower", "wall_s, cpu_s",
       "shadowed_power"},
      {"sinr.power_control.calls", "count", "lower", "wall_s, cpu_s",
       "shadowed_power"},
      {"sinr.power_control.feasible_ratio", "ratio", "higher", "wall_s, cpu_s",
       "shadowed_power"},
      {"capacity.algorithm1.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"capacity.greedy.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"capacity.weighted.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"capacity.partitions.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"capacity.admission.checks", "count", "lower", "wall_s",
       "dense_sweep, stability_sweep"},
      {"capacity.algorithm1.keep_ratio", "ratio", "higher", "wall_s",
       "dense_sweep"},
      {"scheduling.schedule.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"scheduling.validate.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"scheduling.slots", "count", "lower", "wall_s", "dense_sweep"},
      {"dynamics.queue.self_ms", "ms", "lower", "wall_s", "stability_sweep"},
      {"dynamics.queue.slots", "count", "lower", "wall_s", "stability_sweep"},
      {"distributed.regret.self_ms", "ms", "lower", "wall_s",
       "stability_sweep"},
      {"distributed.regret.rounds", "count", "lower", "wall_s",
       "stability_sweep"},
      {"sweep.checkpoint.self_ms", "ms", "lower", "wall_s", "dense_sweep"},
      {"sweep.checkpoint.bytes", "bytes", "lower", "wall_s", "dense_sweep"},
      {"sweep.report.self_ms", "ms", "lower", "wall_s",
       "dense_sweep, stability_sweep"},
      {"trace.overhead_ratio", "ratio", "lower", "none (tracing cost)", "all"},
  };
  return metrics;
}

std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics) {
  io::Json values = io::Json::Object();
  for (const Metric& m : metrics) {
    io::Json metric = io::Json::Object();
    metric.Set("value", io::Json::Number(m.value));
    metric.Set("unit", io::Json::String(m.unit));
    values.Set(m.name, std::move(metric));
  }
  io::Json result = io::Json::Object();
  result.Set("correct", io::Json::Bool(correct));
  result.Set("attempted", io::Json::Number(static_cast<double>(attempted)));
  result.Set("failed", io::Json::Number(static_cast<double>(failed)));
  result.Set("metrics", std::move(values));
  return result.Dump();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Mb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

double CheckLayersAddUp(const Tracer& tracer,
                        std::vector<std::string>& problems) {
  const std::vector<double> self = tracer.SelfTimesMs();
  double uncovered_ms = 0.0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& span = tracer.spans()[i];
    if (span.name != "engine.instance") continue;
    // The layer spans' self times sum to the instance span minus its own
    // self time, so that self time is what the layers leave uncovered.
    if (self[i] > std::max(kUncoveredShare * span.DurationMs(),
                           kUncoveredFloorMs)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "layers do not add up in instance trace %llu: %.3f of "
                    "%.3f ms covered by no layer span",
                    static_cast<unsigned long long>(span.trace_id), self[i],
                    span.DurationMs());
      problems.push_back(buf);
    }
    uncovered_ms += self[i];
  }
  return uncovered_ms;
}

TraceReport TraceWorkload(const Workload& workload, Tracer& tracer,
                          const std::optional<std::string>& expected_digest) {
  TraceReport report;
  const EngineRun pooled = RunEngine(workload);
  report.digest = Digest(pooled.signature);
  report.attempted = pooled.attempted;
  report.failed = pooled.failed;
  const GateResult gate = CheckGate(workload, pooled, expected_digest);
  if (!gate.ok) {
    report.problems = gate.problems;
    return report;
  }
  const PassResult bare = RunSerialPass(workload, pooled, nullptr);
  const PassResult traced = RunSerialPass(workload, pooled, &tracer);

  const std::vector<const engine::InstanceRecord*> records =
      InstanceRecords(workload, pooled);
  if (traced.outputs.size() != records.size() ||
      bare.outputs.size() != records.size()) {
    report.problems.push_back("traced run visited a different instance count");
  } else {
    for (std::size_t i = 0; i < records.size(); ++i) {
      const InstanceOutputs untraced = OutputsOf(*records[i]);
      for (const PassResult* pass : {&traced, &bare}) {
        const std::string diff = CompareOutputs(pass->outputs[i], untraced);
        if (!diff.empty()) {
          report.problems.push_back("instance-run " + std::to_string(i) +
                                    ": " + diff +
                                    " differs from the untraced run");
        }
      }
    }
  }
  const double instance_self_ms = CheckLayersAddUp(tracer, report.problems);
  const PassTallies& t = traced.tallies;
  if (t.contract_violations > 0) {
    report.problems.push_back(
        std::to_string(t.contract_violations) +
        " far-field sets failed the exact LinkSystem::IsFeasible check");
  }

  std::map<std::string, double> self_ms;
  double instance_ms = 0.0;
  // Counter deltas summed over the instance spans, by counter name.
  std::map<std::string, double> counts;
  const std::vector<double> self = tracer.SelfTimesMs();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& span = tracer.spans()[i];
    self_ms[span.name] += self[i];
    if (span.name != "engine.instance") continue;
    instance_ms += span.DurationMs();
    for (std::size_t c = 0; c < tracer.counters().size(); ++c) {
      counts[tracer.counters()[c]] +=
          static_cast<double>(span.counter_deltas[c]);
    }
  }
  const double ff_certified = counts["sinr.farfield_certified_accepts"] +
                              counts["sinr.farfield_certified_rejects"];
  const double ff_fallbacks = counts["sinr.farfield_exact_fallbacks"];
  const std::map<std::string, double> values = {
      {"engine.instance.self_ms", instance_self_ms},
      {"engine.geometry.calls", static_cast<double>(t.geometry_builds)},
      {"engine.geometry.bytes", t.decay_matrix_bytes},
      {"engine.geometry_cache.hit_ratio",
       Ratio(static_cast<double>(t.cache_warm),
             static_cast<double>(t.cache_acquires))},
      {"engine.pool.speedup", Ratio(instance_ms / 1000.0, pooled.engine_s)},
      {"core.metricity.calls", static_cast<double>(t.metricity_calls)},
      {"sinr.kernel_build.calls", static_cast<double>(t.kernel_builds)},
      {"sinr.kernel_build.bytes", t.kernel_bytes},
      {"sinr.kernel_build.warm_ratio",
       workload.is_sweep ? Ratio(static_cast<double>(t.kernel_warm),
                                 static_cast<double>(t.kernel_builds))
                         : 0.0},
      {"sinr.farfield_build.bytes", t.farfield_bytes},
      {"sinr.farfield_admission.checks",
       counts["sinr.farfield_admission_checks"]},
      {"sinr.farfield_admission.certified_ratio",
       Ratio(ff_certified, ff_certified + ff_fallbacks)},
      {"sinr.farfield_admission.exact_fallbacks", ff_fallbacks},
      {"sinr.farfield_admission.refined_cells",
       counts["sinr.farfield_refined_cells"]},
      {"sinr.farfield_contract.sets", static_cast<double>(t.contract_sets)},
      {"sinr.farfield_contract.violations",
       static_cast<double>(t.contract_violations)},
      {"sinr.power_control.calls", static_cast<double>(t.pc_calls)},
      {"sinr.power_control.feasible_ratio",
       Ratio(static_cast<double>(t.pc_feasible),
             static_cast<double>(t.pc_calls))},
      {"capacity.admission.checks", counts["sinr.admission_checks"]},
      {"capacity.algorithm1.keep_ratio",
       Ratio(static_cast<double>(t.alg1_selected),
             static_cast<double>(t.alg1_admitted))},
      {"scheduling.slots", static_cast<double>(t.schedule_slots)},
      {"dynamics.queue.slots", static_cast<double>(t.queue_slots)},
      {"distributed.regret.rounds", static_cast<double>(t.regret_rounds)},
      {"sweep.checkpoint.bytes", t.checkpoint_bytes},
      {"trace.overhead_ratio", Ratio(traced.wall_s, bare.wall_s)},
  };
  for (const MetricInfo& info : PerLayerMetrics()) {
    double value = 0.0;
    if (const auto it = values.find(info.name); it != values.end()) {
      value = it->second;
    } else if (info.name.ends_with(".self_ms")) {
      const std::string layer =
          info.name.substr(0, info.name.size() - std::string(".self_ms").size());
      if (const auto s = self_ms.find(layer); s != self_ms.end()) {
        value = s->second;
      }
    }
    report.metrics.push_back({info.name, value, info.unit});
  }

  // Memory attribution: what the engine holds at once in the pooled run.
  const int instances = workload.is_sweep ? workload.sweep.base.instances
                                          : workload.specs.front().instances;
  const bool serialised = !workload.is_sweep &&
                          workload.specs.front().zeta < 0.0;
  const int live_workers =
      serialised ? 1 : std::min(workload.threads, instances);
  const int live_matrices = workload.is_sweep ? instances : live_workers;
  report.notes.push_back(
      "memory: peak_rss_mb=" + std::to_string(PeakRssMb()) +
      "; decay matrices " + std::to_string(live_matrices) + " x " +
      Mb(t.decay_matrix_bytes) + "; kernel caches " +
      std::to_string(t.kernel_builds > 0 ? live_workers : 0) + " x " +
      Mb(t.kernel_bytes) + "; far-field kernels " +
      std::to_string(t.farfield_builds > 0 ? live_workers : 0) + " x " +
      Mb(t.farfield_bytes));
  const auto count = [](double v) {
    return std::to_string(static_cast<long long>(v));
  };
  report.notes.push_back(
      "far-field: " + count(counts["sinr.farfield_admission_checks"]) +
      " admission checks, " + count(ff_certified) + " certified decisions, " +
      count(ff_fallbacks) + " exact fallbacks, " +
      count(counts["sinr.farfield_refined_cells"]) + " refined cells, " +
      std::to_string(t.contract_sets) + " sets re-checked exactly, " +
      std::to_string(t.contract_violations) + " violations");
  report.notes.push_back(
      "layers: " + std::to_string(instance_self_ms) + " of " +
      std::to_string(instance_ms) +
      " ms of instance spans covered by no layer span");
  report.notes.push_back(
      "tracing: serial pass " + std::to_string(traced.wall_s) +
      " s traced vs " + std::to_string(bare.wall_s) + " s with spans off; " +
      std::to_string(tracer.spans().size()) + " spans over " +
      std::to_string(t.instances) + " instance-runs");
  return report;
}

}  // namespace perfbench
