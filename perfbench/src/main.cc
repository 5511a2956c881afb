// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --digests FILE --workdir DIR --launched-ns T [--setup-only]
//
// T is the CLOCK_MONOTONIC time, in nanoseconds, at which the launcher
// started this process; set-up time runs from there to the first call into
// the engine.  --setup-only stops at that call and reports set-up time
// alone.  --trace 0 measures the end-to-end metrics with tracing off: the
// workload runs through the engine (plus checkpoint and report writing)
// repeatedly for S seconds, and the medians of wall and CPU time are
// reported with the process's peak RSS and the median set-up time over this
// launch and --setup-only relaunches made before every repetition and after
// the last.  --trace 1 runs the traced pass instead and reports the per-layer metrics,
// writing the spans as a Chrome trace into the work directory (where
// checkpoints and reports go too).
// Every run passes the correctness gate or exits 1.  The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.h"
#include "measure.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace core = decaylib::core;
namespace io = decaylib::io;

// --setup-only relaunches before every repetition and after the last.  They
// spread set-up samples over the measuring window; samples taken only at
// process start would all see the state a previous process left behind
// (such as 2 GB of memory being freed).
constexpr int kSetupLaunches = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string digests;
  std::string workdir;
  long long launched_ns = -1;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *value != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] - '0';
    } else if (flag == "--digests") {
      args.digests = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--launched-ns") {
      args.launched_ns = std::strtoll(value, &end, 10);
      if (*end != '\0' || args.launched_ns < 0) return false;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && have_seed && args.seconds > 0.0 &&
         args.trace >= 0 && !args.digests.empty() && !args.workdir.empty() &&
         args.launched_ns >= 0;
}

// CLOCK_MONOTONIC in nanoseconds, the clock of Python's time.monotonic_ns().
long long MonotonicNs() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<long long>(now.tv_sec) * 1000000000LL +
         static_cast<long long>(now.tv_nsec);
}

// Launches this program again with --setup-only and returns the set-up time
// it reports.  `args` holds absolute paths.
double LaunchSetupOnly(const Args& args) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> words = {
      self, "--workload", args.workload, "--seed", std::to_string(args.seed),
      "--seconds", "1", "--trace", "0", "--digests", args.digests,
      "--workdir", args.workdir, "--setup-only", "--launched-ns",
      std::to_string(MonotonicNs())};
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned == 0) waitpid(pid, &status, 0);
  const core::StatusOr<io::Json> result = io::Json::Parse(out);
  const io::Json* metrics = result.ok() ? result->Find("metrics") : nullptr;
  const io::Json* setup = metrics != nullptr ? metrics->Find("setup_s") : nullptr;
  if (spawned != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      setup == nullptr || setup->Find("value") == nullptr) {
    throw std::runtime_error("--setup-only launch failed");
  }
  return setup->Find("value")->AsNumber();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void PrintProblems(const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", p.c_str());
  }
}

// The end-to-end metrics among `values`, named and united by the catalogue
// (EndToEndMetrics(), which BENCHMARK.json repeats), in its order.
std::vector<Metric> EndToEndResult(const std::map<std::string, double>& values) {
  std::vector<Metric> metrics;
  for (const MetricInfo& info : EndToEndMetrics()) {
    if (const auto it = values.find(info.name); it != values.end()) {
      metrics.push_back({info.name, it->second, info.unit});
    }
  }
  if (metrics.size() != values.size()) {
    throw std::logic_error("a measured value has no end-to-end metric entry");
  }
  return metrics;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --digests FILE --workdir DIR --launched-ns T "
                 "[--setup-only]\n");
    return 2;
  }
  core::StatusOr<DigestTable> digests = LoadDigests(args.digests);
  if (!digests.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", digests.status().ToString().c_str());
    return 2;
  }
  std::optional<std::string> expected;
  if (const auto it = digests->find({args.workload, args.seed});
      it != digests->end()) {
    expected = it->second;
  }
  // Checkpoints and reports land in the work directory.
  std::filesystem::create_directories(args.workdir);
  args.workdir = std::filesystem::absolute(args.workdir);
  args.digests = std::filesystem::absolute(args.digests);
  std::filesystem::current_path(args.workdir);

  core::StatusOr<Workload> made =
      MakeWorkload(args.workload, args.seed, Size::kFull);
  const core::Status valid =
      made.ok() ? ValidateWorkload(*made) : made.status();
  if (!valid.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", valid.ToString().c_str());
    return 2;
  }
  const Workload& workload = *made;

  // Everything above is set-up: the process start, spec generation from
  // the seed and validation.  The runners build their arenas and geometry
  // caches inside Run, so that work is in wall_s.
  const double setup_s =
      static_cast<double>(MonotonicNs() - args.launched_ns) * 1e-9;
  if (args.setup_only) {
    std::printf("%s\n", ResultJson(true, 1, 0,
                                   EndToEndResult({{"setup_s", setup_s}}))
                            .c_str());
    return 0;
  }

  if (args.trace == 1) {
    Tracer tracer(TracedCounters());
    const TraceReport report = TraceWorkload(workload, tracer, expected);
    for (const std::string& note : report.notes) {
      std::printf("%s: %s\n", args.workload.c_str(), note.c_str());
    }
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Metric& m = report.metrics[i];
      const MetricInfo& info = PerLayerMetrics()[i];
      std::printf("%s: %s = %.6g %s (should move %s on %s)\n",
                  args.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str(), info.moves.c_str(), info.workloads.c_str());
    }
    if (!expected) {
      std::printf("%s: digest %s (seed %llu has no recorded digest)\n",
                  args.workload.c_str(), report.digest.c_str(),
                  static_cast<unsigned long long>(args.seed));
    }
    const std::string trace_out =
        std::filesystem::absolute(args.workload + ".trace.json").string();
    const core::Status written = tracer.WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("%s: trace written to %s\n", args.workload.c_str(),
                trace_out.c_str());
    PrintProblems(report.problems);
    const bool correct = report.problems.empty() && !report.metrics.empty();
    std::printf("%s\n", ResultJson(correct, std::max(1LL, report.attempted),
                                   report.failed, report.metrics)
                            .c_str());
    return correct ? 0 : 1;
  }

  // Timed repetitions: whole engine runs plus checkpoint/report writing,
  // until the next one would overrun the measuring window.
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> setups = {setup_s};
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupLaunches; ++i) {
      setups.push_back(LaunchSetupOnly(args));
    }
  };
  long long attempted = 0;
  long long failed = 0;
  std::string first_digest;
  const auto window_start = std::chrono::steady_clock::now();
  for (;;) {
    sample_setup();
    const double cpu_before = CpuSeconds();
    const EngineRun run = RunEngine(workload);
    cpu_s.push_back(CpuSeconds() - cpu_before);
    wall_s.push_back(run.wall_s);
    attempted += run.attempted;
    failed += run.failed;
    GateResult gate = CheckGate(workload, run, expected);
    const std::string digest = Digest(run.signature);
    if (first_digest.empty()) first_digest = digest;
    if (digest != first_digest) {
      gate.ok = false;
      gate.problems.push_back("signature changed between repetitions");
    }
    if (!gate.ok) {
      PrintProblems(gate.problems);
      std::printf("%s\n",
                  ResultJson(false, std::max(1LL, attempted), failed, {}).c_str());
      return 1;
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - window_start)
                               .count();
    if (elapsed + Median(wall_s) > args.seconds) break;
  }
  sample_setup();
  if (!expected) {
    std::printf("%s: digest %s (seed %llu has no recorded digest)\n",
                args.workload.c_str(), first_digest.c_str(),
                static_cast<unsigned long long>(args.seed));
  }
  const std::vector<Metric> metrics = EndToEndResult({
      {"wall_s", Median(wall_s)},
      {"cpu_s", Median(cpu_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"setup_s", Median(setups)},
  });
  for (const Metric& m : metrics) {
    std::printf("%s: %s = %.6g %s\n", args.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("%s: wall_s samples:", args.workload.c_str());
  for (const double w : wall_s) std::printf(" %.4f", w);
  std::printf("\n");
  std::printf("%s: fail_frac = %.6g (%lld of %lld instance-runs failed; %zu "
              "repetitions; %zu set-up launches)\n",
              args.workload.c_str(),
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted, wall_s.size(), setups.size());
  std::printf("%s\n", ResultJson(true, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
