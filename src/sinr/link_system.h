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

#include <memory>
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

// The power- and beta-independent planes of a link set over a decay
// space, indexed by link:
//   cross[w*n + v]    = f(s_w, r_v)                     (LinkSystem::CrossDecay)
//   min_pair[v*n + w] = min{f(s_v,r_w), f(s_w,r_v), f(s_v,s_w), f(r_v,r_w)},
//                       0 on the diagonal (the link quasi-distance before
//                       its ^{1/zeta}; ordered, since the sender-sender and
//                       receiver-receiver legs are ordered pairs).
// Every KernelCache over the same (space, links) reads the same planes,
// whatever its power and beta, so they can be built once and shared
// read-only: engine::ScenarioGeometry does so per sampled geometry.
struct LinkPlanes {
  int n = 0;
  std::vector<double> cross;
  std::vector<double> min_pair;

  long long MemoryBytes() const noexcept;  // capacity of both planes
};

// (Re)builds the planes of `links` over `space` into `out`, reusing its
// buffers.  A lazy geometric space is read from its points with
// geom::GeometricDecay -- the expression DecaySpace's fill stores -- and
// stays lazy; a filled space is gathered from its matrix.  Entries are
// bit-identical either way (tests/kernel_test.cc).  Counts one
// sinr.plane_builds and 2 n^2 sinr.plane_entries events.
void BuildLinkPlanes(const core::DecaySpace& space, std::span<const Link> links,
                     LinkPlanes& out);

// The per-link noise test and noise factor of Sec. 2.4, from P_v and f_vv:
// l_v overcomes noise alone iff its signal P_v / f_vv exceeds beta N, and
// then c_v = beta / (1 - beta N f_vv / P_v) (= beta when N = 0).  Returns
// c_v, or 0 when l_v cannot overcome noise (c_v >= beta >= 1 otherwise).
// The one spelling of both: LinkSystem, KernelCache and FarFieldKernel
// call it.
inline double NoiseFactorOrZero(double power, double link_decay,
                                const SinrConfig& config) {
  const double signal = power / link_decay;
  if (!(signal > config.beta * config.noise)) return 0.0;
  return config.beta / (1.0 - config.beta * config.noise / signal);
}

// A set of links over a decay space: the problem's data (links, decays,
// SINR config, optional shared planes).  The SINR math over it -- the
// affectances, sums, feasibility and separation queries -- is KernelCache
// (kernel.h) and, from the points, FarFieldKernel (farfield.h); the naive
// per-query references the tests compare them with live in
// tests/oracles/oracles.h.  Holds a reference to the space: the space must
// outlive the system.
class LinkSystem {
 public:
  // `planes`, when given, must be BuildLinkPlanes(space, links): every
  // KernelCache built on this system then shares them instead of building
  // its own.
  LinkSystem(const core::DecaySpace& space, std::vector<Link> links,
             SinrConfig config = {},
             std::shared_ptr<const LinkPlanes> planes = nullptr);

  int NumLinks() const noexcept { return static_cast<int>(links_.size()); }
  const core::DecaySpace& space() const noexcept { return *space_; }
  const SinrConfig& config() const noexcept { return config_; }
  const Link& link(int v) const { return links_[static_cast<std::size_t>(v)]; }
  const std::vector<Link>& links() const noexcept { return links_; }

  // The shared link planes, or null when none were attached.
  const LinkPlanes* planes() const noexcept { return planes_.get(); }

  // f_vv = f(s_v, r_v): the decay (inverse gain) of link v itself.  Reads
  // through DecaySpace::Entry, so it never fills a lazy space.
  double LinkDecay(int v) const;

  // f_wv = f(s_w, r_v): decay from w's sender to v's receiver.
  double CrossDecay(int w, int v) const;

  // True iff l_v alone meets the SINR threshold: P_v / f_vv > beta * N.
  // (With noise 0 this is always true.)
  bool CanOvercomeNoise(int v, const PowerAssignment& power) const;

  // c_v = beta / (1 - beta N f_vv / P_v); equals beta when N = 0.
  // Requires CanOvercomeNoise.
  double NoiseFactor(int v, const PowerAssignment& power) const;

  // Feasibility in the affectance form, recomputed per query from the
  // space: a_S(v) = sum_{w in S} c_v (P_w / P_v) f_vv / f_wv, unclamped
  // (w = v contributes 0), at most 1 for every v in S.  Bit-identical to
  // KernelCache::IsFeasible.  Kept on the system only because the
  // benchmark's traced contract check of far-field sets
  // (perfbench/src/traced_pass.cc), which holds no kernel, calls it.
  bool IsFeasible(std::span<const int> S, const PowerAssignment& power) const;

  // Link ids 0..NumLinks()-1 sorted by non-decreasing link decay f_vv --
  // the total order "prec" of Sec. 2.4 (ties by id).
  std::vector<int> OrderByDecay() const;

 private:
  const core::DecaySpace* space_;
  std::vector<Link> links_;
  SinrConfig config_;
  std::shared_ptr<const LinkPlanes> planes_;
};

// All link ids of a system or kernel: {0, 1, ..., NumLinks() - 1}.
template <class Links>
std::vector<int> AllLinks(const Links& links) {
  std::vector<int> ids(static_cast<std::size_t>(links.NumLinks()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

}  // namespace decaylib::sinr
