// Secondary spectrum auctions over decay spaces (transfer list's [38, 37]).
//
// Bidders are links with private valuations; the auctioneer sells
// transmission rights subject to SINR feasibility.  Hoefer-Kesselheim-
// Vocking's mechanism is: run a monotone greedy winner-determination rule
// (an approximation to weighted capacity whose guarantee is charged to the
// inductive independence rho of the instance), then charge critical-value
// payments, which makes the mechanism truthful.  Everything is
// metric-parameter-only, so by Prop. 1 it transfers to decay spaces.
//
// This module implements the single-channel mechanism:
//   * winner determination: greedy by bid, admit while feasible (a monotone
//     allocation rule -- raising your bid can only help you);
//   * critical-value payments per winner, computed by re-running the rule
//     on the others' bids (binary search over the winner's bid);
//   * utilities / truthfulness checks used by tests and benches.
//
// Every entry point runs on a prebuilt sinr::KernelCache, under its power
// assignment (KernelCache(system, UniformPower(system)) for the classic
// single-power setting): winner determination admits through a
// FeasibilityAccumulator (raw in-sums only, O(n) per admission), and the
// payment bisection re-runs the rule ~50 times per winner against the
// *same* warm kernel, so the whole mechanism builds the O(n^2) kernels
// exactly once.  The admission test decides exactly as the naive
// push-IsFeasible-pop loop (kernel.h's bit-exactness contract), so winner
// sets, critical bids and payments are the identical doubles the
// per-query references (tests/oracles) produce; the shared drivers in
// `detail` below give both paths one bid order and one probe sequence.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "sinr/kernel.h"

namespace decaylib::auction {

struct AuctionResult {
  std::vector<int> winners;        // link ids, sorted
  std::vector<double> payments;    // per link; 0 for losers
  double social_welfare = 0.0;     // sum of winning valuations
  double revenue = 0.0;            // sum of payments
};

// Greedy-by-bid winner determination over a warm kernel: scan bids in
// decreasing order, admit while the winner set stays feasible under the
// kernel's power assignment.  Monotone in each bid.
std::vector<int> DetermineWinners(const sinr::KernelCache& kernel,
                                  std::span<const double> bids);

// Full mechanism over a warm kernel: winners + critical-value payments
// (the smallest bid that still wins, holding others fixed; computed by
// bisection to `tol`).
AuctionResult RunAuction(const sinr::KernelCache& kernel,
                         std::span<const double> bids, double tol = 1e-6);

// The critical bid for one link (infimum winning bid against fixed others);
// 0 if the link wins even with an arbitrarily small bid, and +infinity-like
// (max bid * 2) if it cannot win at all.  Needs one bid per link.
//
// Probing the link at bid b only moves the link's *position* in the bid
// order -- the other links keep their fixed relative order, and whether the
// link wins is decided the moment the greedy rule reaches it (winners are
// never evicted).  CriticalBid exploits that: each bisection probe maps to
// the link's insertion position, the admission state over the preceding
// others is resumed from a forward-only snapshot instead of replayed from
// scratch, and the win/lose verdict is memoised per position (the verdict
// is monotone in the position, which is the same monotonicity that makes
// the mechanism truthful).  The probe sequence and every admission decision
// are identical to a full winner-determination rerun per probe, so the
// payment is the same double.
double CriticalBid(const sinr::KernelCache& kernel,
                   std::span<const double> bids, int link, double tol = 1e-6);

namespace detail {

// Deterministic tie-breaking: higher bid first, then lower id.
inline std::vector<int> BidOrder(std::span<const double> bids) {
  std::vector<int> order(bids.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return bids[static_cast<std::size_t>(a)] >
           bids[static_cast<std::size_t>(b)];
  });
  return order;
}

// The critical-value bisection, shared by every path so each produces the
// identical sequence of probes (and hence the identical rounded payment).
// `wins_with(bid)` must answer whether `link` wins when bidding `bid`,
// holding the other bids fixed.
template <typename WinsWith>
double BisectCriticalBid(std::span<const double> bids, double tol,
                         WinsWith&& wins_with) {
  const double max_bid = *std::max_element(bids.begin(), bids.end()) + 1.0;
  if (!wins_with(2.0 * max_bid)) return 2.0 * max_bid;  // cannot win
  double lo = 0.0;
  double hi = 2.0 * max_bid;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (wins_with(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// Winners + payments from any winner-determination / critical-bid pair;
// the accumulation order (sorted winners) is shared so welfare and revenue
// sums associate identically on every path.
template <typename Winners, typename Critical>
AuctionResult RunMechanism(std::span<const double> bids, Winners&& winners,
                           Critical&& critical) {
  AuctionResult result;
  result.winners = winners(bids);
  result.payments.assign(bids.size(), 0.0);
  for (int v : result.winners) {
    result.social_welfare += bids[static_cast<std::size_t>(v)];
    const double payment = critical(bids, v);
    result.payments[static_cast<std::size_t>(v)] = payment;
    result.revenue += payment;
  }
  return result;
}

}  // namespace detail

}  // namespace decaylib::auction
