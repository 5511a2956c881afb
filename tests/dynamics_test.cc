#include "dynamics/queue_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/decay_space.h"
#include "death_test_util.h"
#include "geom/point.h"
#include "geom/samplers.h"
#include "obs/registry.h"
#include "oracles/oracles.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::dynamics {
namespace {

// Well-separated links: every subset feasible, so per-slot service capacity
// equals the number of backlogged links.
struct SparseFixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  explicit SparseFixture(int n, double spread = 50.0) : space(1) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({i * spread, 0.0});
      pts.push_back({i * spread + 1.0, 0.0});
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

// All links stacked: at most one can be served per slot.
struct DenseFixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  explicit DenseFixture(int n) : space(1) {
    std::vector<geom::Vec2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({0.0, i * 0.05});
      pts.push_back({1.0, i * 0.05});
      links.push_back({2 * i, 2 * i + 1});
    }
    space = core::DecaySpace::Geometric(pts, 3.0);
  }
};

// Random pairs of points in a small box: links of mixed lengths with heavy
// contention, so admission both accepts and rejects in most slots.
struct CrowdedFixture {
  core::DecaySpace space;
  std::vector<sinr::Link> links;

  explicit CrowdedFixture(int n, std::uint64_t seed) : space(1) {
    geom::Rng rng(seed);
    space = core::DecaySpace::Geometric(
        geom::SampleUniform(2 * n, 12.0, 12.0, rng), 3.0);
    for (int i = 0; i < n; ++i) links.push_back({2 * i, 2 * i + 1});
  }
};

TEST(QueueSystemTest, SparseSystemIsStableAtHighLoad) {
  const SparseFixture fixture(6);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(1);
  const auto config =
      UniformArrivals(system, 0.8, Scheduler::kLongestQueueFirst, 4000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_LT(stats.mean_queue, 10.0);               // bounded backlog
  EXPECT_NEAR(stats.throughput, 6 * 0.8, 0.3);     // serves what arrives
  EXPECT_LT(stats.backlog_growth, 2.0);
}

TEST(QueueSystemTest, DenseSystemUnstableAboveOnePacketPerSlot) {
  const DenseFixture fixture(5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(2);
  // Offered load 5 * 0.5 = 2.5 packets/slot >> 1 servable.
  const auto config =
      UniformArrivals(system, 0.5, Scheduler::kLongestQueueFirst, 4000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_NEAR(stats.throughput, 1.0, 0.1);  // capacity is one per slot
  EXPECT_GT(stats.backlog_growth, 1.2);     // queues keep growing
  EXPECT_GT(stats.mean_queue, 100.0);
}

TEST(QueueSystemTest, DenseSystemStableBelowCapacity) {
  const DenseFixture fixture(5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(3);
  // Offered load 5 * 0.15 = 0.75 < 1.
  const auto config =
      UniformArrivals(system, 0.15, Scheduler::kLongestQueueFirst, 6000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_NEAR(stats.throughput, 0.75, 0.1);
  EXPECT_LT(stats.backlog_growth, 1.5);
}

TEST(QueueSystemTest, ConservationLaw) {
  const SparseFixture fixture(4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(4);
  const auto config =
      UniformArrivals(system, 0.4, Scheduler::kGreedyByDecay, 2000);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  const long long remaining = std::accumulate(stats.final_queues.begin(),
                                              stats.final_queues.end(), 0LL);
  EXPECT_EQ(stats.arrived_total, stats.served_total + remaining);
}

TEST(QueueSystemTest, RandomAccessServesSparseTraffic) {
  const SparseFixture fixture(5);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(5);
  auto config = UniformArrivals(system, 0.05, Scheduler::kRandomAccess, 6000);
  config.random_access_c = 1.0;
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_GT(stats.throughput, 0.15);       // serves most of the 0.25 offered
  EXPECT_LT(stats.backlog_growth, 3.0);
}

TEST(QueueSystemTest, LongestQueueFirstBeatsObliviousGreedyWhenAsymmetric) {
  // Unequal arrival rates: backlog-aware scheduling keeps the loaded link's
  // queue shorter than oblivious decay-order greedy does.
  const DenseFixture fixture(3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  QueueConfig config;
  config.arrival_rates = {0.6, 0.05, 0.05};
  config.slots = 6000;
  config.scheduler = Scheduler::kLongestQueueFirst;
  geom::Rng rng_a(6);
  const QueueStats lqf = RunQueueSimulation(kernel, config, rng_a);
  config.scheduler = Scheduler::kGreedyByDecay;
  geom::Rng rng_b(6);
  const QueueStats greedy = RunQueueSimulation(kernel, config, rng_b);
  EXPECT_LE(lqf.mean_queue, greedy.mean_queue * 1.5);
  EXPECT_GT(lqf.throughput, 0.5);
}

TEST(QueueSystemTest, ZeroArrivalsZeroEverything) {
  const SparseFixture fixture(3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(7);
  const auto config =
      UniformArrivals(system, 0.0, Scheduler::kLongestQueueFirst, 500);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_EQ(stats.arrived_total, 0);
  EXPECT_EQ(stats.served_total, 0);
  EXPECT_DOUBLE_EQ(stats.mean_queue, 0.0);
}

// Regression: slots < 4 used to put every slot in the "fourth quarter"
// bucket (quarter == 0), so any backlog at all made backlog_growth read
// 1e9 -- an instability verdict off a three-slot run.  Short runs now
// report the neutral 1.0.
TEST(QueueSystemTest, BacklogGrowthNeutralOnShortRuns) {
  const DenseFixture fixture(4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(11);
  const auto config =
      UniformArrivals(system, 0.9, Scheduler::kLongestQueueFirst, 3);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_GT(stats.arrived_total, 0);  // the run did see backlog
  EXPECT_DOUBLE_EQ(stats.backlog_growth, 1.0);
}

// Out-of-range arrival rates must be rejected, not silently clamped inside
// Rng::Chance (which would distort the Bernoulli process).
TEST(QueueSystemDeathTest, ArrivalRatesOutsideUnitIntervalRejected) {
  SKIP_IF_DL_CHECK_OFF();
  const SparseFixture fixture(3);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  QueueConfig config;
  config.arrival_rates = {0.5, 1.5, 0.5};
  config.slots = 100;
  config.warmup = 10;
  geom::Rng rng(12);
  EXPECT_DEATH(RunQueueSimulation(kernel, config, rng), "Bernoulli");
  config.arrival_rates = {0.5, -0.1, 0.5};
  EXPECT_DEATH(RunQueueSimulation(kernel, config, rng), "Bernoulli");
  EXPECT_DEATH(
      UniformArrivals(system, 1.2, Scheduler::kLongestQueueFirst, 100),
      "Bernoulli");
}

// Warmup accounting: the *_measured counters are exactly the events behind
// the reported rates, the *_total counters cover the whole run, and the
// conservation law holds for the totals.
TEST(QueueSystemTest, WarmupCountersAreConsistent) {
  const SparseFixture fixture(4);
  const sinr::LinkSystem system(fixture.space, fixture.links, {2.0, 0.0});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  geom::Rng rng(13);
  const auto config =
      UniformArrivals(system, 0.5, Scheduler::kLongestQueueFirst, 2000);
  ASSERT_EQ(config.warmup, 200);
  const QueueStats stats = RunQueueSimulation(kernel, config, rng);
  EXPECT_GE(stats.served_total, stats.served_measured);
  EXPECT_GE(stats.arrived_total, stats.arrived_measured);
  EXPECT_GT(stats.served_measured, 0);
  // throughput is defined over the measurement window, bit-for-bit.
  EXPECT_EQ(stats.throughput,
            static_cast<double>(stats.served_measured) /
                (config.slots - config.warmup));
  const long long remaining = std::accumulate(stats.final_queues.begin(),
                                              stats.final_queues.end(), 0LL);
  EXPECT_EQ(stats.arrived_total, stats.served_total + remaining);
}

void ExpectSameStats(const QueueStats& a, const QueueStats& b) {
  // Whole-struct equality (defaulted operator==) keeps the gate covering
  // fields this helper does not yet name; the field checks below localise
  // a failure.
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.mean_queue, b.mean_queue);
  EXPECT_EQ(a.mean_delay, b.mean_delay);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.served_total, b.served_total);
  EXPECT_EQ(a.arrived_total, b.arrived_total);
  EXPECT_EQ(a.served_measured, b.served_measured);
  EXPECT_EQ(a.arrived_measured, b.arrived_measured);
  EXPECT_EQ(a.final_queues, b.final_queues);
  EXPECT_EQ(a.backlog_growth, b.backlog_growth);
}

// The cached path must reproduce the naive reference bit-for-bit at a fixed
// seed: identical randomness stream, identical admission decisions,
// identical statistics -- for every scheduler, on both a feasible-everywhere
// and a contention-heavy deployment, with and without ambient noise, at
// light and saturating loads.
TEST(QueueSystemTest, CachedPathBitIdenticalToNaive) {
  const SparseFixture sparse(5);
  const DenseFixture dense(5);
  const CrowdedFixture crowded(24, 77);
  struct Case {
    const core::DecaySpace* space;
    const std::vector<sinr::Link>* links;
    sinr::SinrConfig config;
    double lambda;
  };
  const std::vector<Case> cases = {
      {&sparse.space, &sparse.links, {2.0, 0.0}, 0.6},
      {&dense.space, &dense.links, {2.0, 0.0}, 0.3},
      {&sparse.space, &sparse.links, {2.0, 1e-4}, 0.4},
      {&crowded.space, &crowded.links, {1.5, 0.0}, 0.05},
      {&crowded.space, &crowded.links, {1.5, 0.0}, 0.3},
      {&crowded.space, &crowded.links, {1.5, 1e-3}, 0.05},
      {&crowded.space, &crowded.links, {1.5, 1e-3}, 0.3},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const sinr::LinkSystem system(*cases[c].space, *cases[c].links,
                                  cases[c].config);
    const sinr::KernelCache kernel(system, sinr::UniformPower(system));
    for (const Scheduler scheduler :
         {Scheduler::kLongestQueueFirst, Scheduler::kGreedyByDecay,
          Scheduler::kRandomAccess}) {
      SCOPED_TRACE(testing::Message()
                   << "case " << c << " scheduler "
                   << SchedulerName(scheduler));
      const auto config =
          UniformArrivals(system, cases[c].lambda, scheduler, 600);
      geom::Rng rng_naive(21);
      const QueueStats naive =
          RunQueueSimulationNaive(system, config, rng_naive);
      geom::Rng rng_cached(21);
      const QueueStats cached = RunQueueSimulation(kernel, config, rng_cached);
      ExpectSameStats(naive, cached);
    }
  }
}

// Three stacked unit links (one served per slot) and a longer fourth link
// that cannot overcome noise: at lambda = 1 its queue reaches `slots` =
// 70,000 > 2^16, so every slot's LQF order runs three radix passes.
TEST(QueueSystemTest, OverloadedQueuesPast65536MatchNaive) {
  std::vector<geom::Vec2> pts;
  std::vector<sinr::Link> links;
  for (int i = 0; i < 3; ++i) {
    pts.push_back({0.0, i * 0.05});
    pts.push_back({1.0, i * 0.05});
    links.push_back({2 * i, 2 * i + 1});
  }
  pts.push_back({10.0, 0.0});
  pts.push_back({13.0, 0.0});
  links.push_back({6, 7});
  const core::DecaySpace space = core::DecaySpace::Geometric(pts, 3.0);
  const sinr::LinkSystem system(space, links, {2.0, 0.05});
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));
  ASSERT_FALSE(kernel.CanOvercomeNoise(3));
  const int slots = 70000;
  const auto config =
      UniformArrivals(system, 1.0, Scheduler::kLongestQueueFirst, slots);
  geom::Rng rng_naive(3);
  const QueueStats naive = RunQueueSimulationNaive(system, config, rng_naive);
  geom::Rng rng_cached(3);
  const QueueStats cached = RunQueueSimulation(kernel, config, rng_cached);
  ExpectSameStats(naive, cached);
  EXPECT_EQ(cached.final_queues[3], slots);
  EXPECT_EQ(cached.served_total, slots);  // one stacked link every slot
  EXPECT_EQ(cached.arrived_total,
            cached.served_total +
                std::accumulate(cached.final_queues.begin(),
                                cached.final_queues.end(), 0LL));
}

// The old LQF order: backlogged ids stable-sorted by queue length desc.
std::vector<int> StableSortOrder(const std::vector<long long>& queue) {
  std::vector<int> order;
  for (int v = 0; v < static_cast<int>(queue.size()); ++v) {
    if (queue[static_cast<std::size_t>(v)] > 0) order.push_back(v);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return queue[static_cast<std::size_t>(a)] >
           queue[static_cast<std::size_t>(b)];
  });
  return order;
}

TEST(LongestQueueFirstTest, MatchesStableSortOrder) {
  const long long k16 = 1LL << 16;
  const long long k20 = 1LL << 20;  // the largest queue e21's flags reach
  std::vector<std::vector<long long>> cases = {
      std::vector<long long>(9, 7),          // all equal
      std::vector<long long>(9, 0),          // all zero
      {0, 0, 0, 5, 0, 0},                    // one backlogged link
      {0, 0, 0, 0, 0, k20},                  // one, past every byte
      {},                                    // no links
      {70000, k16, k16 - 1, k16 + 1, 256, 255, 1, 0, 70000, 2, 257},
      {k20, k20 - 1, k20 - 256, k20, 3, 0, k20 - 1, 1, k20 - 255},
      {1LL << 40, 1LL << 40, (1LL << 40) + 1, 5, (1LL << 62) + 3, 0, 7},
  };
  geom::Rng rng(19);
  for (const long long range : {2LL, 300LL, 70000LL, k20 + 1}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<long long> queue(64);
      for (long long& q : queue) {
        // Half the links idle, the rest spread over [1, range).
        q = rng.Chance(0.5) ? 0
                            : 1 + static_cast<long long>(rng.Uniform(
                                      0.0, static_cast<double>(range - 1)));
      }
      cases.push_back(std::move(queue));
    }
  }
  std::vector<int> order;
  std::vector<int> scratch{42, 43};  // stale contents are overwritten
  for (const auto& queue : cases) {
    SCOPED_TRACE(testing::PrintToString(queue));
    LongestQueueFirst(queue, order, scratch);
    EXPECT_EQ(order, StableSortOrder(queue));
  }
}

// Once both buffers have grown to the backlog, an order allocates nothing:
// the two buffers keep their storage (passes only swap them).
TEST(LongestQueueFirstTest, AllocatesNothingOnceWarm) {
  const int n = 200;
  std::vector<int> order;
  std::vector<int> scratch;
  LongestQueueFirst(std::vector<long long>(n, 1), order, scratch);
  const std::set<const int*> buffers = {order.data(), scratch.data()};
  geom::Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<long long> queue(static_cast<std::size_t>(n));
    for (long long& q : queue) {
      q = static_cast<long long>(rng.Uniform(0.0, 300000.0));
    }
    LongestQueueFirst(queue, order, scratch);
    EXPECT_EQ((std::set<const int*>{order.data(), scratch.data()}), buffers);
    EXPECT_EQ(order, StableSortOrder(queue));
  }
}

TEST(QueueSystemTest, SchedulerNamesRoundTrip) {
  EXPECT_EQ(SchedulerNames().size(), 3u);
  for (const Scheduler scheduler :
       {Scheduler::kLongestQueueFirst, Scheduler::kGreedyByDecay,
        Scheduler::kRandomAccess}) {
    const auto parsed = SchedulerFromName(SchedulerName(scheduler));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, scheduler);
  }
  EXPECT_FALSE(SchedulerFromName("no_such_scheduler").has_value());
}

}  // namespace
}  // namespace decaylib::dynamics
