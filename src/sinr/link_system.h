// Links, SINR, affectance and feasibility over decay spaces (Sec. 2.1, 2.4).
//
// A link l_v = (s_v, r_v) is an ordered sender/receiver pair of nodes in a
// decay space D = (V, f).  With power assignment P, sender s_u's
// interference at receiver r_v is P_u / f(s_u, r_v); transmission of a set S
// succeeds at l_v iff
//     SINR_v = (P_v / f_vv) / (N + sum_{u in S, u != v} P_u / f(s_u, r_v))
//            >= beta.
//
// The affectance reformulation (Sec. 2.4) normalises interference to the
// received signal:
//     a_w(v) = min(1, c_v * (P_w / P_v) * (f_vv / f_wv)),
//     c_v    = beta / (1 - beta N f_vv / P_v)  > beta,
// where f_wv = f(s_w, r_v).  A set S is feasible iff the in-affectance
// a_S(v) = sum_{w in S} a_w(v) is at most 1 for every l_v in S, and
// K-feasible iff a_S(v) <= 1/K.  Without the min-clamp the two forms are
// algebraically equivalent; tests pin this equivalence down.
//
// Link distances use the induced quasi-distance d = f^{1/zeta}:
//     d(l_v, l_w) = min{d(s_v,r_w), d(s_w,r_v), d(s_v,s_w), d(r_v,r_w)},
// and l_v is eta-separated from a set L iff d(l_v, l_w) >= eta * d_vv for
// every l_w in L (Sec. 2.4) -- the separation notion driving Algorithm 1 and
// the partition lemmas.
#pragma once

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/decay_space.h"

namespace decaylib::sinr {

struct Link {
  int sender = 0;
  int receiver = 0;
  friend bool operator==(const Link&, const Link&) = default;
};

// Converts (sender, receiver) pairs -- e.g. spaces::LinkInstance::links --
// into Link values.
std::vector<Link> LinksFromPairs(std::span<const std::pair<int, int>> pairs);

struct SinrConfig {
  double beta = 1.0;   // SINR threshold (>= 1 in the paper's model)
  double noise = 0.0;  // ambient noise N
};

// Power assignments index by link id.
using PowerAssignment = std::vector<double>;

// A set of links over a decay space, with the SINR machinery.
// Holds a reference to the space: the space must outlive the system.
class LinkSystem {
 public:
  LinkSystem(const core::DecaySpace& space, std::vector<Link> links,
             SinrConfig config = {});

  int NumLinks() const noexcept { return static_cast<int>(links_.size()); }
  const core::DecaySpace& space() const noexcept { return *space_; }
  const SinrConfig& config() const noexcept { return config_; }
  const Link& link(int v) const { return links_[static_cast<std::size_t>(v)]; }
  const std::vector<Link>& links() const noexcept { return links_; }

  // f_vv = f(s_v, r_v): the decay (inverse gain) of link v itself.
  double LinkDecay(int v) const;

  // f_wv = f(s_w, r_v): decay from w's sender to v's receiver.
  double CrossDecay(int w, int v) const;

  // True iff l_v alone meets the SINR threshold: P_v / f_vv >= beta * N.
  // (With noise 0 this is always true.)  Affectance requires strict >.
  bool CanOvercomeNoise(int v, const PowerAssignment& power) const;

  // c_v = beta / (1 - beta N f_vv / P_v); equals beta when N = 0.
  // Requires CanOvercomeNoise strictly.
  double NoiseFactor(int v, const PowerAssignment& power) const;

  // a_w(v) per Sec. 2.4; a_v(v) = 0 by definition.
  double Affectance(int w, int v, const PowerAssignment& power) const;

  // a_w(v) without the min(1, .) clamp.  Feasibility checks use this form:
  // sum_w raw-a_w(v) <= 1 is *exactly* SINR_v >= beta, whereas the clamp can
  // under-count a single overwhelming interferer (e.g. the edge pairs of the
  // Theorem 3/6 constructions, whose affectance is 1 + epsilon).
  double AffectanceRaw(int w, int v, const PowerAssignment& power) const;

  // a_S(v) and a_v(S); links equal to v inside S contribute 0.
  double InAffectance(std::span<const int> S, int v,
                      const PowerAssignment& power) const;
  double OutAffectance(int v, std::span<const int> S,
                       const PowerAssignment& power) const;

  // Raw SINR of l_v when exactly the links in S transmit (v need not be in S;
  // its own entry is skipped if present).  Infinity when noise and
  // interference are both zero.
  double Sinr(int v, std::span<const int> S,
              const PowerAssignment& power) const;

  // Feasibility in the affectance form: a_S(v) <= 1 for all v in S, summing
  // *unclamped* affectances (equivalent to SINR_v >= beta for every link).
  bool IsFeasible(std::span<const int> S, const PowerAssignment& power) const;

  // K-feasibility: a_S(v) <= 1/K for all v in S (unclamped sums).
  bool IsKFeasible(std::span<const int> S, double K,
                   const PowerAssignment& power) const;

  // Feasibility in the raw SINR >= beta form (used to cross-check, and by
  // the distributed simulator).
  bool IsSinrFeasible(std::span<const int> S,
                      const PowerAssignment& power) const;

  // max_{v in S} a_S(v); 0 for sets of size < 2.
  double MaxInAffectance(std::span<const int> S,
                         const PowerAssignment& power) const;

  // --- quasi-distance geometry of links ---------------------------------

  // d_vv = d(s_v, r_v) = f_vv^{1/zeta}.
  double LinkLength(int v, double zeta) const;

  // d(l_v, l_w): min over the four endpoint quasi-distances.
  double LinkDistance(int v, int w, double zeta) const;

  // True iff d(l_v, l_w) >= eta * d_vv for all w in L (v's own entry,
  // if present, is skipped).
  bool IsSeparatedFrom(int v, std::span<const int> L, double eta,
                       double zeta) const;

  // True iff every link of L is eta-separated from the rest of L.
  bool IsSeparatedSet(std::span<const int> L, double eta, double zeta) const;

  // Link ids 0..NumLinks()-1 sorted by non-decreasing link decay f_vv --
  // the total order "prec" of Sec. 2.4 (ties by id).
  std::vector<int> OrderByDecay() const;

 private:
  const core::DecaySpace* space_;
  std::vector<Link> links_;
  SinrConfig config_;
};

// All link ids of a system or kernel: {0, 1, ..., NumLinks() - 1}.
template <class Links>
std::vector<int> AllLinks(const Links& links) {
  std::vector<int> ids(static_cast<std::size_t>(links.NumLinks()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

}  // namespace decaylib::sinr
