#include "tracer.h"

#include <cstdio>
#include <utility>

#include "io/json.h"

namespace perfbench {

namespace core = decaylib::core;
namespace io = decaylib::io;

Tracer::Tracer(std::vector<std::string> counters)
    : counter_names_(std::move(counters)),
      epoch_(std::chrono::steady_clock::now()) {
  for (const std::string& name : counter_names_) {
    counters_.push_back(&decaylib::obs::Registry::Global().GetCounter(name));
  }
}

std::vector<long long> Tracer::ReadCounters() const {
  std::vector<long long> values;
  values.reserve(counters_.size());
  for (const decaylib::obs::Counter* counter : counters_) {
    values.push_back(counter->value());
  }
  return values;
}

int Tracer::Begin(std::string name, std::uint64_t trace_id) {
  SpanRecord span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.trace_id = trace_id;
  span.counter_deltas = ReadCounters();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Stamp last, so the bookkeeping above is charged to the parent.
  spans_.back().start_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - epoch_)
                               .count();
  return index;
}

void Tracer::End(int index) {
  const double now_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - epoch_)
                            .count();
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_us = now_us;
  const std::vector<long long> values = ReadCounters();
  for (std::size_t c = 0; c < values.size(); ++c) {
    span.counter_deltas[c] = values[c] - span.counter_deltas[c];
  }
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Rename(int index, std::string name) {
  spans_[static_cast<std::size_t>(index)].name = std::move(name);
}

std::vector<double> Tracer::SelfTimesMs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].DurationMs();
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.DurationMs();
    }
  }
  return self;
}

core::Status Tracer::WriteChromeTrace(const std::string& path) const {
  io::Json events = io::Json::Array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const std::size_t dot = span.name.find('.');
    io::Json args = io::Json::Object();
    args.Set("trace_id", io::Json::Number(static_cast<double>(span.trace_id)));
    args.Set("span_id", io::Json::Number(static_cast<double>(i)));
    args.Set("parent_id", io::Json::Number(span.parent));
    for (std::size_t c = 0; c < counter_names_.size(); ++c) {
      if (span.counter_deltas[c] != 0) {
        args.Set(counter_names_[c],
                 io::Json::Number(static_cast<double>(span.counter_deltas[c])));
      }
    }
    io::Json event = io::Json::Object();
    event.Set("name", io::Json::String(span.name));
    event.Set("cat", io::Json::String(span.name.substr(0, dot)));
    event.Set("ph", io::Json::String("X"));
    event.Set("ts", io::Json::Number(span.start_us));
    event.Set("dur", io::Json::Number(span.end_us - span.start_us));
    event.Set("pid", io::Json::Number(1));
    event.Set("tid", io::Json::Number(1));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  io::Json doc = io::Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", io::Json::String("ms"));
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return core::Status::IoError("cannot write " + path);
  const std::string text = doc.Dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !ok) {
    return core::Status::IoError("short write to " + path);
  }
  return core::Status::Ok();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name,
                       std::uint64_t trace_id)
    : tracer_(tracer),
      index_(tracer != nullptr ? tracer->Begin(std::move(name), trace_id)
                               : -1) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

void ScopedSpan::Rename(std::string name) {
  if (tracer_ != nullptr) tracer_->Rename(index_, std::move(name));
}

}  // namespace perfbench
