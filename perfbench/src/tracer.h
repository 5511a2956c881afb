// In-memory span recorder for the traced benchmark run.
//
// The traced run is single-threaded: spans nest by a stack, each records
// its name, start, end, parent and the trace id of the instance-run it
// belongs to, and nothing is written until the run ends (WriteChromeTrace,
// Chrome trace_event JSON that Perfetto loads).  Each span also records the
// deltas of a fixed set of obs counters read at its start and end, so counts
// are attributed at the same boundaries as time.  Code that takes a Tracer*
// runs bare when it is null, which is how the traced run measures its own
// overhead against the same serial pass with spans off.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/registry.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  std::uint64_t trace_id = 0;
  double start_us = 0.0;  // microseconds since the tracer was created
  double end_us = 0.0;
  // Per Tracer::counters() entry: its value at the span's end minus its
  // value at the start.
  std::vector<long long> counter_deltas;

  double DurationMs() const { return (end_us - start_us) / 1000.0; }
};

class Tracer {
 public:
  // `counters` names the obs registry counters every span snapshots.
  explicit Tracer(std::vector<std::string> counters = {});

  const std::vector<std::string>& counters() const noexcept {
    return counter_names_;
  }

  // Opens a span as a child of the innermost open span; returns its index.
  int Begin(std::string name, std::uint64_t trace_id);
  // Closes span `index` (which must be the innermost open span).
  void End(int index);
  // Renames an open span: used when a call's outcome decides which layer
  // it belonged to (a geometry-cache lookup that turned out cold).
  void Rename(int index, std::string name);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  // Each span's duration minus the time its direct children cover, in ms,
  // indexed like spans().
  std::vector<double> SelfTimesMs() const;

  // Writes {"traceEvents": [...], "displayTimeUnit": "ms"}: one complete
  // ("ph": "X") event per span, with its trace id, span id, parent id and
  // non-zero counter deltas under "args".
  decaylib::core::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<long long> ReadCounters() const;

  std::vector<std::string> counter_names_;
  std::vector<const decaylib::obs::Counter*> counters_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t trace_id);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(std::string name);

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
