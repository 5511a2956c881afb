// Metric catalogue and the traced-run analysis.
//
// The catalogue is the single list of metric names and units the benchmark
// prints; BENCHMARK.json repeats it (its schema has no room for the
// "moves"/"workloads" columns, which live here and in README.md), and a
// test keeps the two in step.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "traced_pass.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

struct MetricInfo {
  std::string name;
  std::string unit;
  std::string better;     // "lower" or "higher"
  std::string moves;      // end-to-end metric(s) a change here should move
  std::string workloads;  // workload(s) on which it should move them
};

const std::vector<MetricInfo>& EndToEndMetrics();
const std::vector<MetricInfo>& PerLayerMetrics();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The traced run of one workload: an untraced pooled engine run (gated),
// the serial pass with spans off, then the same pass with spans on.
// Problems are correctness failures: a failed gate, traced outputs that
// differ from the untraced records, layers that do not add up to their
// instance span, or a far-field set the exact check rejects.
struct TraceReport {
  std::vector<Metric> metrics;  // PerLayerMetrics() order, all present
  std::vector<std::string> problems;
  std::vector<std::string> notes;  // human-readable summary lines
  std::string digest;              // of the untraced run's signature
  long long attempted = 0;         // instance-runs of the pooled run
  long long failed = 0;
};

TraceReport TraceWorkload(const Workload& workload, Tracer& tracer,
                          const std::optional<std::string>& expected_digest);

// The "layers add up" check, per instance-run of a traced pass: the layer
// self times must sum to the instance span up to the time no layer span
// covers, and that time may be at most kUncoveredShare of the span, or
// kUncoveredFloorMs for spans too short to share it out.  A layer call left
// without a span fails it.  Returns the summed uncovered time (ms).
inline constexpr double kUncoveredShare = 0.02;
inline constexpr double kUncoveredFloorMs = 0.5;
double CheckLayersAddUp(const Tracer& tracer,
                        std::vector<std::string>& problems);

// The result line: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}, every value
// with all its digits.
std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics);

// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

}  // namespace perfbench
