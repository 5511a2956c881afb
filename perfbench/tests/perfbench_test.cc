// Tests of the benchmark's own code: input generation, the metric
// catalogue, the correctness gate, and reduced-size traced runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "io/json.h"
#include "measure.h"
#include "sweep/checkpoint.h"
#include "traced_pass.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace io = decaylib::io;

// Every input of a workload, through the full-spec hash the checkpoint
// layer uses (every base field, axes, tasks).
std::string InputsHash(const Workload& w) {
  if (w.is_sweep) return sweep::SweepSpecHash(w.sweep);
  std::string hashes;
  for (const engine::ScenarioSpec& spec : w.specs) {
    sweep::SweepSpec wrapped;
    wrapped.base = spec;
    wrapped.tasks = w.tasks;
    hashes += sweep::SweepSpecHash(wrapped);
  }
  return hashes;
}

// The benchmark contract's metric names: a letter or digit, then up to 63
// of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Each test writes its checkpoints and reports into its own directory.
class PerfbenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    home_ = std::filesystem::current_path();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::filesystem::path dir =
        home_ / "perfbench_test_work" / info->name();
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
  }
  void TearDown() override { std::filesystem::current_path(home_); }

 private:
  std::filesystem::path home_;
};

TEST_F(PerfbenchTest, OneSeedAlwaysGeneratesIdenticalInputs) {
  for (const std::string& name : WorkloadNames()) {
    for (const Size size : {Size::kFull, Size::kSmoke}) {
      const Workload a = *MakeWorkload(name, 42, size);
      const Workload b = *MakeWorkload(name, 42, size);
      const Workload c = *MakeWorkload(name, 43, size);
      EXPECT_EQ(InputsHash(a), InputsHash(b)) << name;
      EXPECT_NE(InputsHash(a), InputsHash(c)) << name;
      EXPECT_TRUE(ValidateWorkload(a).ok()) << name;
    }
  }
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1, Size::kFull).ok());
}

TEST_F(PerfbenchTest, DistinctWorkloadsSampleDistinctGeometry) {
  std::set<std::uint64_t> seeds;
  for (const std::string& name : WorkloadNames()) {
    const Workload w = *MakeWorkload(name, 1, Size::kFull);
    seeds.insert(w.is_sweep ? w.sweep.base.seed : w.specs.front().seed);
  }
  EXPECT_EQ(seeds.size(), WorkloadNames().size());
}

TEST_F(PerfbenchTest, MetricNamesAreValidUniqueAndMatchBenchmarkJson) {
  const auto unit_ok = [](const std::string& unit) {
    return !unit.empty() && unit.size() <= 16 &&
           unit.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") ==
               std::string::npos;
  };
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricInfo& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(unit_ok(m.unit)) << m.name;
      EXPECT_TRUE(m.better == "lower" || m.better == "higher") << m.name;
      EXPECT_FALSE(m.workloads.empty()) << m.name;
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));

  const auto doc =
      io::Json::Parse(ReadFile(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json"));
  ASSERT_TRUE(doc.ok());
  const auto expect_same = [](const io::Json* listed,
                              const std::vector<MetricInfo>& catalogue) {
    ASSERT_NE(listed, nullptr);
    ASSERT_EQ(listed->Items().size(), catalogue.size());
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      const io::Json& m = listed->Items()[i];
      EXPECT_EQ(m.Find("name")->AsString(), catalogue[i].name);
      EXPECT_EQ(m.Find("unit")->AsString(), catalogue[i].unit);
      EXPECT_EQ(m.Find("better")->AsString(), catalogue[i].better);
    }
  };
  expect_same(doc->Find("end_to_end"), EndToEndMetrics());
  expect_same(doc->Find("per_layer"), PerLayerMetrics());
  const io::Json* workloads = doc->Find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->Items().size(), WorkloadNames().size());
  for (std::size_t i = 0; i < WorkloadNames().size(); ++i) {
    EXPECT_EQ(workloads->Items()[i].Find("name")->AsString(),
              WorkloadNames()[i]);
  }
}

TEST_F(PerfbenchTest, ResultLineCarriesEveryMetricWithItsUnit) {
  std::vector<Metric> metrics;
  for (const MetricInfo& info : EndToEndMetrics()) {
    metrics.push_back({info.name, 1.0 / 3.0, info.unit});
  }
  const auto doc = io::Json::Parse(ResultJson(true, 12, 0, metrics));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("correct")->AsBool());
  EXPECT_EQ(doc->Find("attempted")->AsNumber(), 12.0);
  EXPECT_EQ(doc->Find("failed")->AsNumber(), 0.0);
  const io::Json* printed = doc->Find("metrics");
  ASSERT_EQ(printed->Members().size(), metrics.size());
  for (const Metric& m : metrics) {
    const io::Json* entry = printed->Find(m.name);
    ASSERT_NE(entry, nullptr) << m.name;
    EXPECT_EQ(entry->Find("value")->AsNumber(), 1.0 / 3.0);  // all digits
    EXPECT_EQ(entry->Find("unit")->AsString(), m.unit);
  }
}

TEST_F(PerfbenchTest, CommittedDigestsParse) {
  const auto table =
      LoadDigests(std::string(PERFBENCH_ROOT) + "/perfbench/digests.txt");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (const auto& [key, digest] : *table) {
    EXPECT_NE(std::find(WorkloadNames().begin(), WorkloadNames().end(),
                        key.first),
              WorkloadNames().end())
        << key.first;
  }
  std::ofstream("bad.txt") << "dense_sweep 1 not-a-digest\n";
  EXPECT_FALSE(LoadDigests("bad.txt").ok());
  std::ofstream("dup.txt") << "dense_sweep 1 0123456789abcdef\n"
                              "dense_sweep 1 0123456789abcdef\n";
  EXPECT_FALSE(LoadDigests("dup.txt").ok());
  EXPECT_FALSE(LoadDigests("missing.txt").ok());
}

TEST_F(PerfbenchTest, GateFailsOnFlippedDigestAndInjectedViolations) {
  for (const std::string& name : {std::string("dense_sweep"),
                                  std::string("shadowed_power")}) {
    const Workload w = *MakeWorkload(name, 5, Size::kSmoke);
    const EngineRun run = RunEngine(w);
    const std::string digest = Digest(run.signature);
    EXPECT_TRUE(CheckGate(w, run, std::nullopt).ok) << name;
    EXPECT_TRUE(CheckGate(w, run, digest).ok) << name;

    std::string flipped = digest;
    flipped.back() = flipped.back() == '0' ? '1' : '0';
    EXPECT_FALSE(CheckGate(w, run, flipped).ok) << name;

    EngineRun violated = run;
    engine::ScenarioResult& result =
        w.is_sweep ? violated.sweep.cells.front().result : violated.batch.front();
    for (auto& [metric, summary] : result.aggregate) {
      if (metric == "alg1_infeasible") summary.Add(1.0);
    }
    EXPECT_FALSE(CheckGate(w, violated, std::nullopt).ok) << name;

    EngineRun unhealthy = run;
    engine::ScenarioResult& sick = w.is_sweep
                                       ? unhealthy.sweep.cells.front().result
                                       : unhealthy.batch.front();
    sick.aggregate.front().second.Add(std::nan(""));
    EXPECT_FALSE(CheckGate(w, unhealthy, std::nullopt).ok) << name;

    EngineRun failed = run;
    failed.failed = 1;
    EXPECT_FALSE(CheckGate(w, failed, std::nullopt).ok) << name;
  }
}

TEST_F(PerfbenchTest, ReducedRunOfEachWorkloadPassesGateAndTracedCheck) {
  for (const std::string& name : WorkloadNames()) {
    const Workload w = *MakeWorkload(name, 3, Size::kSmoke);
    Tracer tracer(TracedCounters());
    const TraceReport report = TraceWorkload(w, tracer, std::nullopt);
    EXPECT_TRUE(report.problems.empty())
        << name << ": " << report.problems.front();
    ASSERT_EQ(report.metrics.size(), PerLayerMetrics().size()) << name;
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      EXPECT_EQ(report.metrics[i].name, PerLayerMetrics()[i].name);
      EXPECT_EQ(report.metrics[i].unit, PerLayerMetrics()[i].unit);
      EXPECT_TRUE(std::isfinite(report.metrics[i].value));
    }
    EXPECT_EQ(report.failed, 0) << name;
    if (name == "farfield_large") {
      // The far-field contract re-check ran on every far-field set.
      const auto sets = std::find_if(
          report.metrics.begin(), report.metrics.end(), [](const Metric& m) {
            return m.name == "sinr.farfield_contract.sets";
          });
      EXPECT_GT(sets->value, 0.0);
    }
    EXPECT_GT(report.attempted, 0) << name;
    // The traced run reproduces the untraced digest.
    const EngineRun again = RunEngine(w);
    EXPECT_EQ(Digest(again.signature), report.digest) << name;
    EXPECT_TRUE(tracer.WriteChromeTrace(name + ".trace.json").ok());
    const auto trace = io::Json::Parse(ReadFile(name + ".trace.json"));
    ASSERT_TRUE(trace.ok()) << name;
    EXPECT_EQ(trace->Find("traceEvents")->Items().size(),
              tracer.spans().size());
  }
}

TEST_F(PerfbenchTest, TracedOutputsDetectADifference) {
  const Workload w = *MakeWorkload("stability_sweep", 9, Size::kSmoke);
  const EngineRun run = RunEngine(w);
  const PassResult pass = RunSerialPass(w, run, nullptr);
  const auto records = InstanceRecords(w, run);
  ASSERT_EQ(pass.outputs.size(), records.size());
  EXPECT_EQ(CompareOutputs(pass.outputs[0], OutputsOf(*records[0])), "");
  InstanceOutputs nudged = pass.outputs[0];
  nudged.queue_throughput = std::nextafter(nudged.queue_throughput, 2.0);
  EXPECT_EQ(CompareOutputs(nudged, OutputsOf(*records[0])), "queue_throughput");
}

TEST_F(PerfbenchTest, SelfTimesSubtractDirectChildren) {
  Tracer tracer(TracedCounters());
  {
    ScopedSpan outer(&tracer, "outer", 1);
    {
      ScopedSpan inner(&tracer, "inner", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  const std::vector<double> self = tracer.SelfTimesMs();
  EXPECT_NEAR(self[0] + self[1], tracer.spans()[0].DurationMs(), 1e-9);
  EXPECT_GE(self[1], 2.0);
  EXPECT_GE(self[0], 1.0);
}

// An instance whose layer spans cover it passes the "layers add up" check;
// the same instance with a layer call left untraced fails it.
TEST_F(PerfbenchTest, LayersAddUpFailsOnAnUntracedGap) {
  const auto instance = [](Tracer& tracer, std::uint64_t id, int gap_ms) {
    ScopedSpan span(&tracer, "engine.instance", id);
    {
      ScopedSpan layer(&tracer, "engine.geometry", id);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
  };
  Tracer covered;
  instance(covered, 1, 0);
  std::vector<std::string> problems;
  EXPECT_LT(CheckLayersAddUp(covered, problems), kUncoveredFloorMs);
  EXPECT_TRUE(problems.empty());

  Tracer gap;
  instance(gap, 1, 0);
  instance(gap, 2, 10);
  EXPECT_GE(CheckLayersAddUp(gap, problems), 10.0);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("instance trace 2"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
