// Naive reference implementations: the test oracles and bench A/B
// baselines of the cached production paths in src/.
//
// Each recomputes every quantity from scratch through the LinkSystem /
// DecaySpace methods, under uniform power where a power assignment enters,
// exactly as the library did before its kernels existed.  The production
// paths are bit-exact against them -- equal results, not close ones -- and
// the tests compare with EXPECT_EQ.  Where a production path and its oracle
// share a driver (the bid order, the critical-bid bisection, the mechanism,
// the queue and regret loops), the driver lives in the `detail` section of
// the module header, so both draw one rng stream and one probe sequence.
// Linked by decaylib_tests and benches e00, e18 and e21 as decaylib_oracles.
#pragma once

#include <span>
#include <vector>

#include "auction/auction.h"
#include "capacity/algorithm1.h"
#include "core/decay_space.h"
#include "core/metricity.h"
#include "distributed/regret_game.h"
#include "dynamics/queue_system.h"
#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::capacity {

// Algorithm 1 on the candidates (defaults to all links), every affectance
// and separation recomputed per query.
Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta,
                                    std::span<const int> candidates);
Algorithm1Result RunAlgorithm1Naive(const sinr::LinkSystem& system,
                                    double zeta);

}  // namespace decaylib::capacity

namespace decaylib::core {

// Bisects every constraining triplet, single threaded, in the original loop
// order.
MetricityResult ComputeMetricityNaive(const DecaySpace& space,
                                      double tol = 1e-12);

// Single-threaded exhaustive phi scan.
PhiResult ComputePhiNaive(const DecaySpace& space);

}  // namespace decaylib::core

namespace decaylib::auction {

// Per-query LinkSystem feasibility (push-IsFeasible-pop).
std::vector<int> DetermineWinnersNaive(const sinr::LinkSystem& system,
                                       std::span<const double> bids);
AuctionResult RunAuctionNaive(const sinr::LinkSystem& system,
                              std::span<const double> bids,
                              double tol = 1e-6);
double CriticalBidNaive(const sinr::LinkSystem& system,
                        std::span<const double> bids, int link,
                        double tol = 1e-6);

// CriticalBid without the resumable snapshot: re-runs the cached winner
// determination per bisection probe.
double CriticalBidRescan(const sinr::KernelCache& kernel,
                         std::span<const double> bids, int link,
                         double tol = 1e-6);

}  // namespace decaylib::auction

namespace decaylib::dynamics {

// Per-slot LinkSystem feasibility and SINR queries.
QueueStats RunQueueSimulationNaive(const sinr::LinkSystem& system,
                                   const QueueConfig& config, geom::Rng& rng);

}  // namespace decaylib::dynamics

namespace decaylib::distributed {

// Per-round LinkSystem::Sinr.
RegretResult RunRegretGameNaive(const sinr::LinkSystem& system,
                                const RegretConfig& config, geom::Rng& rng);

}  // namespace decaylib::distributed
