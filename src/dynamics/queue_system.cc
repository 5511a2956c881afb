#include "dynamics/queue_system.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <numeric>
#include <utility>

#include "core/check.h"
#include "sinr/admission.h"

namespace decaylib::dynamics {

namespace {

constexpr const char* kSchedulerNames[] = {"lqf", "greedy", "random"};

}  // namespace

namespace detail {

void ValidateConfig(int n, const QueueConfig& config) {
  DL_CHECK(static_cast<int>(config.arrival_rates.size()) == n,
           "one arrival rate per link required");
  DL_CHECK(config.slots > config.warmup && config.warmup >= 0,
           "slots must exceed warmup");
  for (const double rate : config.arrival_rates) {
    DL_CHECK(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0,
             "arrival rates are per-slot Bernoulli probabilities in [0, 1]");
  }
}

void SampleRandomAccessSenders(const std::vector<long long>& queue,
                               double random_access_c, geom::Rng& rng,
                               std::vector<int>& senders) {
  senders.clear();
  const int n = static_cast<int>(queue.size());
  int contention = 0;
  for (int v = 0; v < n; ++v) {
    if (queue[static_cast<std::size_t>(v)] > 0) ++contention;
  }
  if (contention == 0) return;
  for (int v = 0; v < n; ++v) {
    if (queue[static_cast<std::size_t>(v)] == 0) continue;
    if (rng.Chance(std::min(1.0, random_access_c / contention))) {
      senders.push_back(v);
    }
  }
}

}  // namespace detail

void LongestQueueFirst(std::span<const long long> queue,
                       std::vector<int>& order, std::vector<int>& scratch) {
  // Branch-free collection: every id is written, only backlogged ones kept.
  order.resize(queue.size());
  std::size_t backlogged = 0;
  long long q_max = 0;
  for (std::size_t v = 0; v < queue.size(); ++v) {
    order[backlogged] = static_cast<int>(v);
    backlogged += queue[v] > 0 ? 1 : 0;
    q_max = std::max(q_max, queue[v]);
  }
  order.resize(backlogged);
  scratch.resize(backlogged);
  // LSD radix sort over 8-bit digits, each pass a stable counting sort with
  // the digit buckets laid out high to low.  Stable passes over ascending
  // ids give (queue desc, id asc); passes stop at q_max's top byte.
  constexpr int kDigitBits = 8;
  constexpr int kBuckets = 1 << kDigitBits;
  std::array<int, kBuckets> start;
  for (int shift = 0; shift < 64 && (q_max >> shift) != 0;
       shift += kDigitBits) {
    // Bucket of v in this pass: 0 for the largest digit.
    const auto bucket = [&](int v) {
      return static_cast<std::size_t>(
          kBuckets - 1 -
          ((queue[static_cast<std::size_t>(v)] >> shift) & (kBuckets - 1)));
    };
    start.fill(0);
    for (int v : order) ++start[bucket(v)];
    int offset = 0;
    for (int& slot : start) {
      const int count = slot;
      slot = offset;
      offset += count;
    }
    for (int v : order) {
      scratch[static_cast<std::size_t>(start[bucket(v)]++)] = v;
    }
    order.swap(scratch);
  }
}

std::span<const char* const> SchedulerNames() { return kSchedulerNames; }

const char* SchedulerName(Scheduler scheduler) {
  return kSchedulerNames[static_cast<int>(scheduler)];
}

std::optional<Scheduler> SchedulerFromName(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kSchedulerNames); ++i) {
    if (name == kSchedulerNames[i]) return static_cast<Scheduler>(i);
  }
  return std::nullopt;
}

QueueStats RunQueueSimulation(const sinr::KernelCache& kernel,
                              const QueueConfig& config, geom::Rng& rng) {
  const int n = kernel.NumLinks();
  const double beta = kernel.system().config().beta;
  const std::vector<int> decay_order = kernel.OrderByDecay();
  sinr::FeasibilityAccumulator admitted(kernel);
  std::vector<int> backlogged;
  std::vector<int> lqf_scratch;
  std::vector<int> senders;

  // Each slot's greedy admission runs sinr::AdmitWhileFeasible over the
  // backlogged links into one reused accumulator: O(|S|) per probe and O(n)
  // per admission, deciding exactly as the naive push-IsFeasible-pop loop.
  const auto schedule = [&](const std::vector<long long>& queue,
                            geom::Rng& slot_rng, std::vector<int>& chosen) {
    switch (config.scheduler) {
      case Scheduler::kLongestQueueFirst: {
        LongestQueueFirst(queue, backlogged, lqf_scratch);
        admitted.Clear();
        sinr::AdmitWhileFeasible(kernel, backlogged, admitted);
        chosen.assign(admitted.members().begin(), admitted.members().end());
        break;
      }
      case Scheduler::kGreedyByDecay: {
        backlogged.clear();
        for (int v : decay_order) {
          if (queue[static_cast<std::size_t>(v)] > 0) backlogged.push_back(v);
        }
        admitted.Clear();
        sinr::AdmitWhileFeasible(kernel, backlogged, admitted);
        chosen.assign(admitted.members().begin(), admitted.members().end());
        break;
      }
      case Scheduler::kRandomAccess: {
        detail::SampleRandomAccessSenders(queue, config.random_access_c,
                                          slot_rng, senders);
        // Only links meeting the SINR threshold in the realised transmission
        // set are served.
        for (int v : senders) {
          if (kernel.Sinr(v, senders) >= beta) chosen.push_back(v);
        }
        break;
      }
    }
  };
  return detail::RunQueueLoop(n, config, rng, schedule);
}

QueueConfig UniformArrivals(const sinr::LinkSystem& system, double lambda,
                            Scheduler scheduler, int slots) {
  DL_CHECK(std::isfinite(lambda) && lambda >= 0.0 && lambda <= 1.0,
           "lambda is a per-slot Bernoulli probability in [0, 1]");
  QueueConfig config;
  config.arrival_rates.assign(static_cast<std::size_t>(system.NumLinks()),
                              lambda);
  config.scheduler = scheduler;
  config.slots = slots;
  config.warmup = slots / 10;
  return config;
}

}  // namespace decaylib::dynamics
