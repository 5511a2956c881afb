// Naive reference implementations: the test oracles and bench A/B
// baselines of the cached production paths in src/.
//
// Each recomputes every quantity from scratch through the LinkSystem data
// reads and the DecaySpace, under uniform power where an algorithm's power
// assignment enters, exactly as the library did before its kernels
// existed.  The sinr section holds the per-query SINR math itself; the
// algorithm oracles below are built on it.  The production
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

namespace decaylib::sinr {

// The per-query SINR math of Sec. 2.4 over a LinkSystem: every call
// re-derives the noise factor and reads the decays from the space.  The
// KernelCache method of the same name (kernel.h) is bit-identical to each.

// The noise test and noise factor of l_v, written out here rather than
// read from src/ so the references do not share production's c_v: l_v
// overcomes noise alone iff P_v / f_vv > beta N (strictly), and then
// c_v = beta / (1 - beta N f_vv / P_v).  NoiseFactorNaive requires the test.
bool CanOvercomeNoiseNaive(const LinkSystem& system, int v,
                           const PowerAssignment& power);
double NoiseFactorNaive(const LinkSystem& system, int v,
                        const PowerAssignment& power);
// a_w(v) = min(1, c_v * (P_w / P_v) * f_vv / f_wv); a_v(v) = 0.  Requires
// CanOvercomeNoiseNaive(v).
double AffectanceNaive(const LinkSystem& system, int w, int v,
                       const PowerAssignment& power);
// a_w(v) without the min(1, .) clamp.
double AffectanceRawNaive(const LinkSystem& system, int w, int v,
                          const PowerAssignment& power);
// a_S(v) and a_v(S), clamped; links equal to v inside S contribute 0.
double InAffectanceNaive(const LinkSystem& system, std::span<const int> S,
                         int v, const PowerAssignment& power);
double OutAffectanceNaive(const LinkSystem& system, int v,
                          std::span<const int> S,
                          const PowerAssignment& power);
// Raw SINR of l_v when exactly the links in S transmit (v's own entry is
// skipped); infinity when noise and interference are both zero.
double SinrNaive(const LinkSystem& system, int v, std::span<const int> S,
                 const PowerAssignment& power);
// a_S(v) <= 1/K for every v in S, summing unclamped affectances.
bool IsKFeasibleNaive(const LinkSystem& system, std::span<const int> S,
                      double K, const PowerAssignment& power);
// SINR_v >= beta for every v in S (the raw form of feasibility).
bool IsSinrFeasibleNaive(const LinkSystem& system, std::span<const int> S,
                         const PowerAssignment& power);
// max_{v in S} a_S(v); 0 for sets of size < 2.
double MaxInAffectanceNaive(const LinkSystem& system, std::span<const int> S,
                            const PowerAssignment& power);

// d_vv = f_vv^{1/zeta}, and d(l_v, l_w) as the min of the four endpoint
// quasi-distances (four pows).
double LinkLengthNaive(const LinkSystem& system, int v, double zeta);
double LinkDistanceNaive(const LinkSystem& system, int v, int w, double zeta);
// d(l_v, l_w) >= eta * d_vv for every w in L (v's own entry skipped), and
// the same for every link of L against the rest of L.
bool IsSeparatedFromNaive(const LinkSystem& system, int v,
                          std::span<const int> L, double eta, double zeta);
bool IsSeparatedSetNaive(const LinkSystem& system, std::span<const int> L,
                         double eta, double zeta);

}  // namespace decaylib::sinr

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

// Per-query feasibility (push-IsKFeasibleNaive-pop).
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

// Per-slot IsKFeasibleNaive feasibility and SinrNaive queries.
QueueStats RunQueueSimulationNaive(const sinr::LinkSystem& system,
                                   const QueueConfig& config, geom::Rng& rng);

}  // namespace decaylib::dynamics

namespace decaylib::distributed {

// Per-round SinrNaive.
RegretResult RunRegretGameNaive(const sinr::LinkSystem& system,
                                const RegretConfig& config, geom::Rng& rng);

}  // namespace decaylib::distributed
