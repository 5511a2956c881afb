// Concurrency regression schedules for the TSan CI gate.
//
// The full ctest suite, pooled sweep gates included, runs race-free under
// ThreadSanitizer (PR 10's audit), but TSan can only indict schedules that
// actually execute.  These tests pin the three shared-state paths the audit
// called out, each driven through a barrier so every run maximises
// contention on the exact first-touch / cold-slot / error-capture windows:
//
//   * obs::Registry handle creation -- every prior test created instruments
//     before spawning workers; here N threads race the first GetCounter /
//     GetGauge / GetHistogram for the same names.  A registry whose map
//     mutation were unlocked (or whose returned references moved on rehash)
//     fails here under TSan, and the stable-handle assertions fail anywhere.
//   * engine::GeometryCache cold Acquire -- workers fill distinct instance
//     slots of one prepared generation concurrently; slots must neither
//     move (deque growth contract) nor share accounting non-atomically.
//   * BatchRunner error capture -- a worker that throws records its failure
//     while siblings keep stealing; the rethrown error must be the lowest
//     failed index regardless of schedule (thread-count-deterministic
//     errors are part of the robustness contract).
//   * core::DecaySpace lazy fill -- N threads make the first entry reads of
//     one shared, unfilled geometric space; exactly one fill may run and
//     every reader must see the same, complete matrix.
#include <barrier>
#include <cstddef>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/decay_space.h"
#include "core/status.h"
#include "engine/batch_runner.h"
#include "engine/scenario.h"
#include "geom/point.h"
#include "geom/rng.h"
#include "obs/registry.h"

namespace decaylib {
namespace {

constexpr int kThreads = 8;

class ConcurrencyRegressionTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::SetEnabled(false); }
};

TEST_F(ConcurrencyRegressionTest, RegistryFirstTouchHandleCreationIsRaceFree) {
  obs::SetEnabled(true);
  constexpr int kAdds = 2000;
  std::barrier gate(kThreads);
  std::vector<obs::Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      // Every thread races the first touch of the same instrument name.
      obs::Counter& counter =
          obs::Registry::Global().GetCounter("conc.first_touch_counter");
      handles[static_cast<std::size_t>(t)] = &counter;
      for (int i = 0; i < kAdds; ++i) counter.Add();
    });
  }
  for (std::thread& t : pool) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[0], handles[static_cast<std::size_t>(t)])
        << "GetCounter must hand every racer the same stable instrument";
  }
  // The counter may survive from a previous test binary invocation of this
  // name, so reset-then-recount would race the assertion; instead require
  // at least this run's adds and exactness modulo prior runs' multiples.
  EXPECT_GE(handles[0]->value(), static_cast<long long>(kThreads) * kAdds);
  EXPECT_EQ(handles[0]->value() % (static_cast<long long>(kThreads) * kAdds),
            0);
}

TEST_F(ConcurrencyRegressionTest, RegistryMixedKindCreationUnderContention) {
  obs::SetEnabled(true);
  std::barrier gate(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      // Distinct names force concurrent map insertions of all three kinds.
      const std::string suffix = std::to_string(t);
      obs::Registry::Global().GetCounter("conc.mixed_counter_" + suffix).Add();
      obs::Registry::Global().GetGauge("conc.mixed_gauge_" + suffix).Set(1.0);
      obs::Registry::Global()
          .GetHistogram("conc.mixed_histogram_" + suffix)
          .Observe(1.0);
    });
  }
  for (std::thread& t : pool) t.join();
  const std::map<std::string, long long> counters =
      obs::Registry::Global().CounterValues();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counters.count("conc.mixed_counter_" + std::to_string(t)), 1u);
  }
}

TEST_F(ConcurrencyRegressionTest, GeometryCacheColdAcquireFillsSlotsRaceFree) {
  engine::ScenarioSpec spec;
  spec.name = "conc_geometry";
  spec.links = 12;
  spec.instances = kThreads;
  spec.seed = 77;

  engine::GeometryCache cache;
  cache.SetGenerations(2);
  cache.Prepare(spec);

  std::barrier gate(kThreads);
  std::vector<const engine::ScenarioGeometry*> first(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      gate.arrive_and_wait();
      bool built = false;
      first[static_cast<std::size_t>(t)] =
          &cache.Acquire(spec, t, engine::PairingMode::kAuto, &built);
      EXPECT_TRUE(built) << "cold acquire of slot " << t;
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(cache.builds(), kThreads);
  EXPECT_EQ(cache.reuses(), 0);

  // Second concurrent round: every slot is warm, references must be stable
  // (the deque-backed slots may never move under growth or reuse).
  std::barrier gate2(kThreads);
  std::vector<std::thread> pool2;
  for (int t = 0; t < kThreads; ++t) {
    pool2.emplace_back([&, t] {
      gate2.arrive_and_wait();
      bool built = true;
      const engine::ScenarioGeometry* again =
          &cache.Acquire(spec, t, engine::PairingMode::kAuto, &built);
      EXPECT_FALSE(built) << "slot " << t << " must be warm";
      EXPECT_EQ(again, first[static_cast<std::size_t>(t)]);
    });
  }
  for (std::thread& t : pool2) t.join();
  EXPECT_EQ(cache.builds(), kThreads);
  EXPECT_EQ(cache.reuses(), kThreads);
}

TEST_F(ConcurrencyRegressionTest, LazyDecaySpaceFillsOnceUnderRacingReads) {
  obs::SetEnabled(true);
  constexpr int kNodes = 300;
  constexpr double kAlpha = 3.0;
  geom::Rng rng(31);
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < kNodes; ++i) {
    pts.push_back({rng.Uniform(-20.0, 20.0), rng.Uniform(-20.0, 20.0)});
  }
  obs::Counter& fills =
      obs::Registry::Global().GetCounter("core.decay_space_fills");
  const long long fills_before = fills.value();

  const core::DecaySpace space = core::DecaySpace::Geometric(pts, kAlpha);
  std::barrier gate(kThreads);
  std::vector<std::vector<double>> seen(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<double>& out = seen[static_cast<std::size_t>(t)];
      gate.arrive_and_wait();
      // Half the racers enter through operator(), half through Raw(); all
      // poll MemoryBytes, which must be safe against the concurrent fill.
      (void)space.MemoryBytes();
      if (t % 2 == 0) {
        for (int i = 0; i < kNodes; ++i) {
          for (int j = 0; j < kNodes; ++j) out.push_back(space(i, j));
        }
      } else {
        const std::span<const double> raw = space.Raw();
        out.assign(raw.begin(), raw.end());
      }
      (void)space.MemoryBytes();
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(fills.value() - fills_before, 1)
      << "racing first reads must share one fill";
  ASSERT_EQ(seen[0].size(), static_cast<std::size_t>(kNodes) * kNodes);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
  }
  for (int i = 0; i < kNodes; ++i) {
    for (int j = 0; j < kNodes; ++j) {
      const double expected =
          i == j ? 0.0
                 : geom::GeometricDecay(pts[static_cast<std::size_t>(i)],
                                        pts[static_cast<std::size_t>(j)],
                                        kAlpha);
      ASSERT_EQ(seen[0][static_cast<std::size_t>(i) * kNodes +
                        static_cast<std::size_t>(j)],
                expected);
    }
  }
}

TEST_F(ConcurrencyRegressionTest, PooledErrorCaptureIsScheduleDeterministic) {
  engine::ScenarioSpec spec;
  spec.name = "conc_fault";
  spec.links = 8;
  spec.instances = 12;
  spec.seed = 99;

  const auto capture = [&](int threads) -> std::string {
    engine::BatchConfig config;
    config.threads = threads;
    config.fault_instance = 3;
    config.fault_message = "conc capture probe";
    const engine::BatchRunner runner(config);
    try {
      (void)runner.RunOne(spec);
    } catch (const core::StatusError& e) {
      return e.status().ToString();
    }
    ADD_FAILURE() << "expected the armed fault to surface as StatusError";
    return {};
  };

  const std::string serial = capture(1);
  ASSERT_FALSE(serial.empty());
  // Same error text from a serial run and repeated pooled runs: the capture
  // path (per-slot record + lowest-failed-index rethrow after join) must be
  // independent of worker interleaving.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(capture(kThreads), serial) << "round " << round;
  }
}

}  // namespace
}  // namespace decaylib
