// Tests for the CLI tools' --trace / --metrics handling (tools/obs_output.h):
// the flags arm the observability layer, both artifacts are written and
// parse back through io::Json, and an unwritable path is a reported
// failure rather than a crash.
#include "obs_output.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/status.h"
#include "io/json.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace decaylib::tools {
namespace {

core::StatusOr<io::Json> ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return io::Json::Parse(buffer.str());
}

// The helpers flip process-global obs state; every test puts back what it
// found so test order never matters.
class ObsOutputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::Enabled();
    sink_was_active_ = obs::TraceSink::Global().active();
  }
  void TearDown() override {
    obs::TraceSink& sink = obs::TraceSink::Global();
    sink.Stop();
    sink.Clear();
    if (sink_was_active_) sink.Start();
    obs::SetEnabled(was_enabled_);
    EXPECT_EQ(obs::Enabled(), was_enabled_);
    EXPECT_EQ(sink.active(), sink_was_active_);
  }

 private:
  bool was_enabled_ = false;
  bool sink_was_active_ = false;
};

TEST_F(ObsOutputTest, NoPathsLeaveObservabilityOff) {
  obs::SetEnabled(false);
  EnableObservability("", "");
  EXPECT_FALSE(obs::Enabled());
  EXPECT_FALSE(obs::TraceSink::Global().active());
  EXPECT_TRUE(WriteObservabilityFiles("", ""));
}

TEST_F(ObsOutputTest, TraceAndMetricsFilesAreWrittenAndParse) {
  const std::string trace_path = "OBS_OUTPUT_TEST_trace.json";
  const std::string metrics_path = "OBS_OUTPUT_TEST_metrics.json";
  obs::SetEnabled(false);
  EnableObservability(trace_path, metrics_path);
  EXPECT_TRUE(obs::Enabled());
  EXPECT_TRUE(obs::TraceSink::Global().active());

  obs::Registry::Global().GetCounter("test.obs_output_counter").Add(3);
  { obs::Span span("obs_output_span", nullptr, "test"); }
  ASSERT_TRUE(WriteObservabilityFiles(trace_path, metrics_path));
  EXPECT_FALSE(obs::TraceSink::Global().active());

  const core::StatusOr<io::Json> trace = ParseFile(trace_path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const io::Json* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->Items().empty());

  const core::StatusOr<io::Json> metrics = ParseFile(metrics_path);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const io::Json* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const io::Json* counter = counters->Find("test.obs_output_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->AsNumber(), 3.0);

  EXPECT_EQ(std::remove(trace_path.c_str()), 0);
  EXPECT_EQ(std::remove(metrics_path.c_str()), 0);
}

TEST_F(ObsOutputTest, UnwritablePathsReturnFalse) {
  const std::string unwritable = "OBS_OUTPUT_TEST_no_such_dir/out.json";
  EnableObservability(unwritable, "");
  EXPECT_FALSE(WriteObservabilityFiles(unwritable, ""));
  EnableObservability("", unwritable);
  EXPECT_FALSE(WriteObservabilityFiles("", unwritable));
}

}  // namespace
}  // namespace decaylib::tools
