#include "auction/auction.h"

#include <algorithm>

#include "core/check.h"
#include "sinr/admission.h"

namespace decaylib::auction {

std::vector<int> DetermineWinners(const sinr::KernelCache& kernel,
                                  std::span<const double> bids) {
  DL_CHECK(static_cast<int>(bids.size()) == kernel.NumLinks(),
           "one bid per link");
  // Admission through the accumulator decides exactly as the naive
  // push-IsFeasible-pop loop (sinr/admission.h); non-positive bids never
  // win.
  std::vector<int> order = detail::BidOrder(bids);
  std::erase_if(order, [&](int v) {
    return bids[static_cast<std::size_t>(v)] <= 0.0;
  });
  std::vector<int> winners = sinr::AdmitWhileFeasible(kernel, order);
  std::sort(winners.begin(), winners.end());
  return winners;
}

double CriticalBid(const sinr::KernelCache& kernel,
                   std::span<const double> bids, int link, double tol) {
  DL_CHECK(static_cast<int>(bids.size()) == kernel.NumLinks(),
           "one bid per link");
  DL_CHECK(link >= 0 && link < kernel.NumLinks(), "link out of range");
  // The others' relative order is fixed across probes: stable_sort keeps it
  // whatever the link bids, so the trial order is always `others` with the
  // link spliced in at position p(bid) = #others preceding it.  An other o
  // precedes the link at bid b iff bids[o] > b, or bids[o] == b and o has
  // the smaller id (stable tie-break on original index).  That predicate is
  // monotone along `others` (sorted by bid desc, ties by id asc), so p(bid)
  // is a partition point.
  //
  // Others with a non-positive bid never win, and never precede the link at
  // a positive bid (the only bids probed past the first check), so they are
  // dropped up front.
  std::vector<int> others = detail::BidOrder(bids);
  others.erase(std::find(others.begin(), others.end(), link));
  std::erase_if(others, [&](int o) {
    return bids[static_cast<std::size_t>(o)] <= 0.0;
  });
  const int m = static_cast<int>(others.size());

  // Forward-only admission snapshot over the first base_pos others.  A
  // winning probe at position p tells us every later probe sits at a
  // position >= p (the bisection only lowers the bid after a win), so the
  // snapshot can safely advance to p; a losing probe leaves it in place.
  sinr::FeasibilityAccumulator base(kernel);
  sinr::FeasibilityAccumulator probe(kernel);
  int base_pos = 0;
  int known_win = -1;    // largest position with a winning verdict
  int known_lose = m + 1;  // smallest position with a losing verdict

  return detail::BisectCriticalBid(bids, tol, [&](double bid) {
    // Same per-link skips DetermineWinners applies when it reaches the link.
    if (bid <= 0.0) return false;
    if (!kernel.CanOvercomeNoise(link)) return false;
    const int p = static_cast<int>(
        std::partition_point(others.begin(), others.end(),
                             [&](int o) {
                               const double ob =
                                   bids[static_cast<std::size_t>(o)];
                               return ob > bid || (ob == bid && o < link);
                             }) -
        others.begin());
    // The verdict is monotone in p: a later position only adds members, and
    // affectance sums only grow, so admission can only flip win -> lose.
    if (p <= known_win) return true;
    if (p >= known_lose) return false;
    // Replays DetermineWinners' admission over others[base_pos, p),
    // resuming from the snapshot's accumulator.
    probe = base;
    sinr::AdmitWhileFeasible(
        kernel,
        std::span<const int>(others).subspan(
            static_cast<std::size_t>(base_pos),
            static_cast<std::size_t>(p - base_pos)),
        probe);
    const bool win = probe.CanAddFeasibly(link);
    if (win) {
      known_win = p;
      std::swap(base, probe);
      base_pos = p;
    } else {
      known_lose = p;
    }
    return win;
  });
}

AuctionResult RunAuction(const sinr::KernelCache& kernel,
                         std::span<const double> bids, double tol) {
  return detail::RunMechanism(
      bids,
      [&](std::span<const double> b) { return DetermineWinners(kernel, b); },
      [&](std::span<const double> b, int v) {
        return CriticalBid(kernel, b, v, tol);
      });
}

}  // namespace decaylib::auction
