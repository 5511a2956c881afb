// Dynamic packet scheduling over decay spaces (the transfer list's
// [2, 3, 44]: wireless network stability in the SINR model).
//
// Packets arrive at links as independent Bernoulli processes; each slot a
// scheduler selects a feasible set of backlogged links, each of which serves
// one packet.  The questions the cited works study -- which arrival-rate
// vectors are stably supported, and by which (distributed) schedulers --
// depend on the decay space only through its metricity-type parameters, so
// by Prop. 1 the GEO-SINR stability results carry over with alpha -> zeta.
// The simulator here lets benches and engine sweeps measure the realised
// stability region.
//
// Schedulers:
//  * kLongestQueueFirst   -- max-weight flavoured greedy: scan backlogged
//                            links by queue length (desc), admit while the
//                            slot stays feasible;
//  * kGreedyByDecay       -- backlog-oblivious greedy in decay order;
//  * kRandomAccess        -- [44]-style distributed random access: each
//                            backlogged link transmits w.p. min(1, c/contention)
//                            independently; collisions serve nothing.
//
// The simulation runs on a prebuilt sinr::KernelCache, under its power
// assignment (UniformPower for the classic setting; one O(n^2) build per
// instance serves any number of runs): greedy admission goes through a
// FeasibilityAccumulator (one raw in-sum array, O(n) per admission instead
// of the naive O(|S|^2) re-summation), the LQF order is an allocation-free
// radix sort (LongestQueueFirst), and the random-access success checks read
// the cached cross-decay matrix.  It is bit-exact at a fixed seed against
// the per-slot LinkSystem reference (tests/oracles): admission decides
// exactly as the naive push-IsFeasible-pop loop, the Sinr checks are the
// identical expression, and both draw one randomness stream through the
// shared driver in `detail` below.
//
// Statistics semantics: `*_total` counters cover the WHOLE run including
// warmup slots; `*_measured` counters and every derived rate (throughput,
// mean_queue, mean_delay) cover only the post-warmup measurement window, so
// throughput == served_measured / (slots - warmup) exactly (served_total /
// slots would mix the cold-start transient into the rate).
#pragma once

#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::dynamics {

enum class Scheduler {
  kLongestQueueFirst,
  kGreedyByDecay,
  kRandomAccess,
};

// Canonical scheduler names, indexed by the enum value: "lqf", "greedy",
// "random".  Shared by the CLI flags, docs and reports.
std::span<const char* const> SchedulerNames();
const char* SchedulerName(Scheduler scheduler);
std::optional<Scheduler> SchedulerFromName(std::string_view name);

struct QueueConfig {
  std::vector<double> arrival_rates;  // per link, packets per slot, in [0, 1]
  Scheduler scheduler = Scheduler::kLongestQueueFirst;
  int slots = 5000;
  int warmup = 500;              // slots excluded from averages
  double random_access_c = 0.5;  // c for kRandomAccess
};

// Growth ratios above this are flagged unstable by the engine's queue task.
// Backlog growing linearly from an empty start has Q4/Q3 -> 1.4 (the
// quarter sums are integrals of t), so the threshold must sit below that;
// 1.2 splits it from the ~1 of a stable run.  The ratio of two near-zero
// backlog sums is noise, so the engine couples the threshold with a
// mean-queue guard (see TaskKind::kQueue in batch_runner.cc).
inline constexpr double kUnstableGrowthThreshold = 1.2;

struct QueueStats {
  double mean_queue = 0.0;        // time-average total backlog (post warmup)
  double mean_delay = 0.0;        // Little's-law estimate: backlog / throughput
  double throughput = 0.0;        // served packets per slot (post warmup)
  double offered_load = 0.0;      // sum of arrival rates
  // Whole-run counters, warmup included (the conservation law
  // arrived_total == served_total + remaining backlog holds for these).
  long long served_total = 0;
  long long arrived_total = 0;
  // Post-warmup counters: exactly the events behind the rates above, so
  // throughput == served_measured / (slots - warmup) bit-for-bit.
  long long served_measured = 0;
  long long arrived_measured = 0;
  std::vector<long long> final_queues;
  // Crude stability indicator: backlog in the last quarter vs the quarter
  // before it (ratio ~1 when stable, > 1 and growing when unstable).  Runs
  // shorter than 4 slots have no two quarters to compare and report the
  // neutral 1.0 instead of a spurious verdict.
  double backlog_growth = 0.0;

  // Bitwise equality over every field: the naive-vs-cached exactness gates
  // (tests, bench_e21) compare whole results, so a new field is covered
  // automatically.
  friend bool operator==(const QueueStats&, const QueueStats&) = default;
};

// Runs the queueing simulation against a warm kernel (and its power
// assignment).
QueueStats RunQueueSimulation(const sinr::KernelCache& kernel,
                              const QueueConfig& config, geom::Rng& rng);

// The backlogged links (queue > 0) in longest-queue-first order: queue
// length descending, ties by link id -- std::stable_sort's order over the
// ascending ids.  A radix sort over the queue lengths' bytes: O(n) per byte
// of the longest queue, and no allocation once `order` and `scratch` (a
// caller-owned buffer, contents unspecified) have grown to the backlog.
void LongestQueueFirst(std::span<const long long> queue,
                       std::vector<int>& order, std::vector<int>& scratch);

// Convenience: uniform arrival rate lambda on every link (lambda in [0, 1]).
QueueConfig UniformArrivals(const sinr::LinkSystem& system, double lambda,
                            Scheduler scheduler, int slots = 5000);

namespace detail {

// DL_CHECKs one arrival rate in [0, 1] per link and slots > warmup >= 0.
void ValidateConfig(int n, const QueueConfig& config);

// The realised random-access transmission set: every backlogged link
// transmits independently w.p. min(1, c / contention).  Consumes randomness
// identically on every path (one Chance per backlogged link, id order).
void SampleRandomAccessSenders(const std::vector<long long>& queue,
                               double random_access_c, geom::Rng& rng,
                               std::vector<int>& senders);

// Shared simulation driver: arrivals, departures and statistics accounting
// are common code, so at a fixed seed the cached path and the per-slot
// reference (tests/oracles) draw the identical randomness stream and can
// only differ through `schedule(queue, rng, chosen)` -- the per-slot
// service-set selection each path implements against its own feasibility
// machinery.
template <typename ScheduleSlot>
QueueStats RunQueueLoop(int n, const QueueConfig& config, geom::Rng& rng,
                        ScheduleSlot&& schedule) {
  ValidateConfig(n, config);
  std::vector<long long> queue(static_cast<std::size_t>(n), 0);
  QueueStats stats;
  double backlog_sum = 0.0;
  double backlog_q3 = 0.0;  // third quarter
  double backlog_q4 = 0.0;  // fourth quarter
  // Runs shorter than 4 slots have quarter == 0: every slot would fall into
  // the "fourth quarter" bucket and the growth ratio would read 1e9
  // ("unstable") off a trivially stable run.  Such runs skip the quarter
  // accounting and report the neutral 1.0 below.
  const int quarter = config.slots / 4;
  std::vector<int> chosen;

  for (int slot = 0; slot < config.slots; ++slot) {
    const bool measured = slot >= config.warmup;
    // Arrivals.
    for (int v = 0; v < n; ++v) {
      if (rng.Chance(config.arrival_rates[static_cast<std::size_t>(v)])) {
        ++queue[static_cast<std::size_t>(v)];
        ++stats.arrived_total;
        if (measured) ++stats.arrived_measured;
      }
    }
    // Schedule a service set among backlogged links.
    chosen.clear();
    schedule(queue, rng, chosen);
    for (int v : chosen) {
      --queue[static_cast<std::size_t>(v)];
      ++stats.served_total;
      if (measured) ++stats.served_measured;
    }
    const long long backlog =
        std::accumulate(queue.begin(), queue.end(), 0LL);
    if (measured) backlog_sum += static_cast<double>(backlog);
    if (quarter > 0) {
      if (slot >= 2 * quarter && slot < 3 * quarter) {
        backlog_q3 += static_cast<double>(backlog);
      } else if (slot >= 3 * quarter) {
        backlog_q4 += static_cast<double>(backlog);
      }
    }
  }

  const int measured_slots = config.slots - config.warmup;
  stats.mean_queue = backlog_sum / measured_slots;
  stats.throughput =
      static_cast<double>(stats.served_measured) / measured_slots;
  stats.mean_delay =
      stats.throughput > 0.0 ? stats.mean_queue / stats.throughput : 0.0;
  stats.offered_load = std::accumulate(config.arrival_rates.begin(),
                                       config.arrival_rates.end(), 0.0);
  stats.final_queues = std::move(queue);
  stats.backlog_growth = quarter == 0        ? 1.0
                         : backlog_q3 > 0.0  ? backlog_q4 / backlog_q3
                         : backlog_q4 > 0.0  ? 1e9
                                             : 1.0;
  return stats;
}

}  // namespace detail

}  // namespace decaylib::dynamics
