// Scoped stage timers emitting Chrome trace_event JSON, viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// obs::Span is an RAII timer and the one clock of the engine and sweep
// layers: construction snapshots the steady clock, destruction (or Finish)
// computes the duration once and
//   * records (name, ms) into an optional obs::StageStats -- the per-stage
//     breakdown results carry, so a stage's report total, trace slice and
//     BENCH phase share one reading and one name,
//   * observes the duration (in ms) into an optional obs::Histogram, and
//   * appends one complete ("ph": "X") trace event -- name, ts/dur in
//     microseconds since the process trace epoch, pid, and a small stable
//     per-thread tid -- to the global TraceSink when a trace is active.
// Same-thread spans nest by construction order, so Perfetto renders the
// engine's geometry -> kernel -> task stack as nested slices per worker.
//
// Cost model: every span reads the clock once at each end, whatever the
// obs flag -- Finish() returns the measured duration and the StageStats
// sink is always fed.  The histogram and the trace event are gated by
// obs::Enabled() at construction: disabled, they cost one branch.  Event
// capture takes one mutex acquisition per span *end* -- span granularity
// in this library is per stage / per cell, so the clock reads and the lock
// are far off any inner loop.
//
// The exported document is {"traceEvents": [...], "displayTimeUnit": "ms"},
// serialised via io::Json so tests (and the CLI itself) can re-parse what
// they wrote with the same strict parser.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "io/json.h"

namespace decaylib::obs {

class Histogram;
struct StageStats;

// Small stable id of the calling thread (1-based, assigned on first use).
int CurrentThreadId();

// One complete trace event ("ph": "X").
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;   // start, microseconds since the trace epoch
  double dur_us = 0.0;  // duration, microseconds
  int tid = 0;
};

// Process-global collector of trace events.  Start clears the buffer and
// begins capture; Stop ends it (buffered events stay readable until the
// next Start or Clear).  Record is thread-safe.
class TraceSink {
 public:
  static TraceSink& Global();

  void Start();
  void Stop();
  void Clear();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  void Record(TraceEvent event);
  std::size_t EventCount() const;
  std::vector<TraceEvent> Events() const;  // snapshot copy

  // {"traceEvents": [{"name", "cat", "ph": "X", "ts", "dur", "pid",
  //  "tid"}, ...], "displayTimeUnit": "ms"} -- the Chrome trace-event JSON
  // object form, loadable in Perfetto.
  io::Json ToJson() const;

  // Dumps ToJson() to `path`; kIoError when the file cannot be written.
  core::Status WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> active_{false};
  std::vector<TraceEvent> events_;
};

// RAII scoped timer; see the file comment for the emission rules.
class Span {
 public:
  explicit Span(std::string name, Histogram* histogram = nullptr,
                const char* category = "stage", StageStats* stages = nullptr);
  ~Span() { Finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Renames the span before it ends, for stage keys decided by the work
  // inside it (a geometry acquire is a build or a cache reuse).
  void Rename(std::string name) { name_ = std::move(name); }

  // Ends the span and returns its duration in ms; idempotent (later calls
  // record nothing and return 0).
  double Finish();

 private:
  std::string name_;
  Histogram* histogram_;
  const char* category_;
  StageStats* stages_;
  bool emit_;  // obs::Enabled() at construction
  bool open_ = true;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace decaylib::obs
