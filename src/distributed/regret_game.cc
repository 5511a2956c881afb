#include "distributed/regret_game.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "obs/registry.h"

namespace decaylib::distributed {

namespace {

obs::Counter& RegretCheckCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("distributed.regret_checks");
  return c;
}

obs::Counter& RegretCertifiedAcceptCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "distributed.regret_certified_accepts");
  return c;
}

obs::Counter& RegretCertifiedRejectCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "distributed.regret_certified_rejects");
  return c;
}

obs::Counter& RegretExactFallbackCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "distributed.regret_exact_fallbacks");
  return c;
}

// Per-receiver interference sums carried across rounds, each with a
// certified rounding bound, so a round costs O(|joined + left| * n) updates
// plus O(1) per decision instead of an O(|S|) exact sum per sender.
//
// Invariant: |sum_[v] - T_v| <= err_[v], where T_v is the real-arithmetic
// value of noise + sum over current senders u != v of the *rounded* term
// power[u] / f(s_u, r_v) -- the very doubles KernelCache::Sinr adds.  Each
// add or subtract rounds by at most u|result| (u = eps/2); charging
// eps * (|term| + |result|) over-covers that and the rounding of the bound
// update itself.  KernelCache::Sinr's sender-order sum of the same
// non-negative terms lies within |S| * eps * T_v of T_v, so whenever
// sum +- err clears signal/beta by the 1e-9 relative band (|S| * eps stays
// far inside it for any n a dense kernel can hold) the exact path decides
// the same way.  Any other case -- the band, a NaN or inf sum -- runs the
// exact Sinr and re-anchors the receiver's sum from the exact fold.
class InterferenceTracker {
 public:
  explicit InterferenceTracker(const sinr::KernelCache& kernel)
      : kernel_(&kernel),
        n_(kernel.NumLinks()),
        noise_(kernel.system().config().noise),
        beta_(kernel.system().config().beta),
        sum_(static_cast<std::size_t>(n_), noise_),
        err_(static_cast<std::size_t>(n_), 0.0),
        accept_below_(static_cast<std::size_t>(n_)),
        reject_above_(static_cast<std::size_t>(n_)) {
    DL_CHECK(n_ < (1 << 22), "sender-order rounding must stay inside the band");
    const sinr::PowerAssignment& power = kernel.power();
    for (int v = 0; v < n_; ++v) {
      const std::size_t sv = static_cast<std::size_t>(v);
      DL_CHECK(power[sv] >= 0.0, "interference terms must be non-negative");
      // KernelCache::Sinr's signal expression.
      const double level = power[sv] / kernel.LinkDecay(v) / beta_;
      accept_below_[sv] = level * (1.0 - kBand);
      reject_above_[sv] = level * (1.0 + kBand);
    }
  }

  // Moves the tracked sender set to `senders` (ascending ids) by applying
  // the links that left and joined since the previous round.
  void MoveTo(const std::vector<int>& senders) {
    DL_CHECK(std::is_sorted(senders.begin(), senders.end()),
             "senders must be listed in ascending order");
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < current_.size() || j < senders.size()) {
      if (j == senders.size() ||
          (i < current_.size() && current_[i] < senders[j])) {
        Apply(current_[i++], -1.0);
      } else if (i == current_.size() || senders[j] < current_[i]) {
        Apply(senders[j++], 1.0);
      } else {
        ++i;
        ++j;
      }
    }
    current_ = senders;
  }

  // kernel.Sinr(v, S) >= beta for the sender set S last passed to MoveTo.
  bool Succeeds(int v) {
    ++checks_;
    const std::size_t sv = static_cast<std::size_t>(v);
    if (sum_[sv] + err_[sv] < accept_below_[sv]) {
      ++accepts_;
      return true;
    }
    if (sum_[sv] - err_[sv] > reject_above_[sv]) {
      ++rejects_;
      return false;
    }
    ++fallbacks_;
    Reanchor(v);
    return kernel_->Sinr(v, current_) >= beta_;
  }

  void FlushCounters() const {
    RegretCheckCounter().Add(checks_);
    RegretCertifiedAcceptCounter().Add(accepts_);
    RegretCertifiedRejectCounter().Add(rejects_);
    RegretExactFallbackCounter().Add(fallbacks_);
  }

 private:
  static constexpr double kBand = 1e-9;
  static constexpr double kEps = std::numeric_limits<double>::epsilon();

  // Adds (sign +1) or removes (sign -1) link u's term from every other
  // receiver's sum, reading row u of the cached cross-decay matrix.
  void Apply(int u, double sign) {
    const double pu = kernel_->power()[static_cast<std::size_t>(u)];
    // Two branch-free ranges around v == u, so the loop vectorises.
    const auto update = [&](int begin, int end) {
      for (int v = begin; v < end; ++v) {
        const std::size_t sv = static_cast<std::size_t>(v);
        const double term = pu / kernel_->CrossDecay(u, v);
        const double s = sum_[sv] + sign * term;
        sum_[sv] = s;
        err_[sv] += kEps * (std::fabs(term) + std::fabs(s));
      }
    };
    update(0, u);
    update(u + 1, n_);
  }

  // Re-derives v's sum from KernelCache::Sinr's own sender-order fold.
  void Reanchor(int v) {
    const sinr::PowerAssignment& power = kernel_->power();
    double s = noise_;
    double e = 0.0;
    for (int u : current_) {
      if (u == v) continue;
      const double term =
          power[static_cast<std::size_t>(u)] / kernel_->CrossDecay(u, v);
      s += term;
      e += kEps * (std::fabs(term) + std::fabs(s));
    }
    sum_[static_cast<std::size_t>(v)] = s;
    err_[static_cast<std::size_t>(v)] = e;
  }

  const sinr::KernelCache* kernel_;
  int n_;
  double noise_;
  double beta_;
  std::vector<double> sum_, err_;
  // (signal / beta) * (1 -/+ 1e-9): certified accept / reject thresholds.
  std::vector<double> accept_below_, reject_above_;
  std::vector<int> current_;
  long long checks_ = 0, accepts_ = 0, rejects_ = 0, fallbacks_ = 0;
};

}  // namespace

RegretResult RunRegretGame(const sinr::KernelCache& kernel,
                           const RegretConfig& config, geom::Rng& rng) {
  InterferenceTracker tracker(kernel);
  RegretResult result = detail::RunRegretLoop(
      kernel.NumLinks(), config, rng,
      [&](const std::vector<int>& senders, std::vector<char>& ok) {
        tracker.MoveTo(senders);
        for (std::size_t i = 0; i < senders.size(); ++i) {
          ok[i] = tracker.Succeeds(senders[i]);
        }
      });
  tracker.FlushCounters();
  return result;
}

}  // namespace decaylib::distributed
