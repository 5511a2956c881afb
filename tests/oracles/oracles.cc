#include "oracles/oracles.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "sinr/power.h"

namespace decaylib::capacity {

Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta,
                                    std::span<const int> candidates) {
  DL_CHECK(zeta > 0.0, "zeta must be positive");
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  const std::vector<int> order = sinr::DecayOrder(system, candidates);

  Algorithm1Result result;
  std::vector<int>& X = result.admitted;
  for (int v : order) {
    if (!system.CanOvercomeNoise(v, power)) continue;
    if (!system.IsSeparatedFrom(v, X, zeta / 2.0, zeta)) continue;
    const double budget = system.OutAffectance(v, X, power) +
                          system.InAffectance(X, v, power);
    if (budget <= 0.5) X.push_back(v);
  }
  for (int v : X) {
    if (system.InAffectance(X, v, power) <= 1.0) result.selected.push_back(v);
  }
  return result;
}

Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta) {
  const std::vector<int> all = sinr::AllLinks(system);
  return RunAlgorithm1Naive(system, zeta, all);
}

}  // namespace decaylib::capacity

namespace decaylib::core {

MetricityResult ComputeMetricityNaive(const DecaySpace& space, double tol) {
  const int n = space.size();
  MetricityResult result;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (y == x) continue;
      const double a = space(x, y);
      for (int z = 0; z < n; ++z) {
        if (z == x || z == y) continue;
        const double b = space(x, z);
        const double c = space(z, y);
        if (a <= b || a <= c) continue;
        const double zeta = TripletZeta(a, b, c, tol);
        if (zeta > result.zeta) {
          result.zeta = zeta;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      }
    }
  }
  return result;
}

PhiResult ComputePhiNaive(const DecaySpace& space) {
  const int n = space.size();
  PhiResult result;
  for (int x = 0; x < n; ++x) {
    for (int z = 0; z < n; ++z) {
      if (z == x) continue;
      const double fxz = space(x, z);
      for (int y = 0; y < n; ++y) {
        if (y == x || y == z) continue;
        const double denom = space(x, y) + space(y, z);
        const double factor = fxz / denom;
        if (factor > result.phi_factor) {
          result.phi_factor = factor;
          result.arg_x = x;
          result.arg_y = y;
          result.arg_z = z;
        }
      }
    }
  }
  result.phi = result.phi_factor > 0.0 ? std::log2(result.phi_factor) : 0.0;
  return result;
}

}  // namespace decaylib::core

namespace decaylib::auction {

double CriticalBidRescan(const sinr::KernelCache& kernel,
                         std::span<const double> bids, int link, double tol) {
  DL_CHECK(link >= 0 && link < kernel.NumLinks(), "link out of range");
  std::vector<double> trial(bids.begin(), bids.end());
  return detail::BisectCriticalBid(bids, tol, [&](double bid) {
    trial[static_cast<std::size_t>(link)] = bid;
    const auto winners = DetermineWinners(kernel, trial);
    return std::binary_search(winners.begin(), winners.end(), link);
  });
}

std::vector<int> DetermineWinnersNaive(const sinr::LinkSystem& system,
                                       std::span<const double> bids) {
  DL_CHECK(static_cast<int>(bids.size()) == system.NumLinks(),
           "one bid per link");
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  std::vector<int> winners;
  for (int v : detail::BidOrder(bids)) {
    if (bids[static_cast<std::size_t>(v)] <= 0.0) continue;
    if (!system.CanOvercomeNoise(v, power)) continue;
    winners.push_back(v);
    if (!system.IsFeasible(winners, power)) winners.pop_back();
  }
  std::sort(winners.begin(), winners.end());
  return winners;
}

double CriticalBidNaive(const sinr::LinkSystem& system,
                        std::span<const double> bids, int link, double tol) {
  DL_CHECK(link >= 0 && link < system.NumLinks(), "link out of range");
  std::vector<double> trial(bids.begin(), bids.end());
  return detail::BisectCriticalBid(bids, tol, [&](double bid) {
    trial[static_cast<std::size_t>(link)] = bid;
    const auto winners = DetermineWinnersNaive(system, trial);
    return std::binary_search(winners.begin(), winners.end(), link);
  });
}

AuctionResult RunAuctionNaive(const sinr::LinkSystem& system,
                              std::span<const double> bids, double tol) {
  return detail::RunMechanism(
      bids,
      [&](std::span<const double> b) {
        return DetermineWinnersNaive(system, b);
      },
      [&](std::span<const double> b, int v) {
        return CriticalBidNaive(system, b, v, tol);
      });
}

}  // namespace decaylib::auction

namespace decaylib::dynamics {

QueueStats RunQueueSimulationNaive(const sinr::LinkSystem& system,
                                   const QueueConfig& config, geom::Rng& rng) {
  const int n = system.NumLinks();
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  const std::vector<int> decay_order = system.OrderByDecay();
  std::vector<int> backlogged;
  std::vector<int> lqf_scratch;
  std::vector<int> senders;

  const auto schedule = [&](const std::vector<long long>& queue,
                            geom::Rng& slot_rng, std::vector<int>& chosen) {
    switch (config.scheduler) {
      case Scheduler::kLongestQueueFirst: {
        LongestQueueFirst(queue, backlogged, lqf_scratch);
        for (int v : backlogged) {
          chosen.push_back(v);
          if (!system.IsFeasible(chosen, power)) chosen.pop_back();
        }
        break;
      }
      case Scheduler::kGreedyByDecay: {
        for (int v : decay_order) {
          if (queue[static_cast<std::size_t>(v)] == 0) continue;
          chosen.push_back(v);
          if (!system.IsFeasible(chosen, power)) chosen.pop_back();
        }
        break;
      }
      case Scheduler::kRandomAccess: {
        detail::SampleRandomAccessSenders(queue, config.random_access_c,
                                          slot_rng, senders);
        for (int v : senders) {
          if (system.Sinr(v, senders, power) >= system.config().beta) {
            chosen.push_back(v);
          }
        }
        break;
      }
    }
  };
  return detail::RunQueueLoop(n, config, rng, schedule);
}

}  // namespace decaylib::dynamics

namespace decaylib::distributed {

RegretResult RunRegretGameNaive(const sinr::LinkSystem& system,
                                const RegretConfig& config, geom::Rng& rng) {
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  const double beta = system.config().beta;
  return detail::RunRegretLoop(
      system.NumLinks(), config, rng,
      [&](const std::vector<int>& senders, std::vector<char>& ok) {
        for (std::size_t i = 0; i < senders.size(); ++i) {
          ok[i] = system.Sinr(senders[i], senders, power) >= beta;
        }
      });
}

}  // namespace decaylib::distributed
