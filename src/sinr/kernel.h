// Cached SINR kernel layer: the library's one implementation of the SINR
// math over a LinkSystem.
//
// Every algorithm in the library (Algorithm 1 capacity, weighted capacity,
// partitions, scheduling, exact solvers) reduces to dense pairwise kernels
// over the decay space: affectances a_w(v), link quasi-distances
// d(l_v, l_w) = min-endpoint-decay^{1/zeta}, and running in/out-affectance
// sums.  KernelCache holds the n x n matrices once so that queries become
// O(1) lookups; two running-sum accumulators turn the O(|S|) re-summations
// of greedy admission loops into O(1) reads with O(n) per-admission
// updates -- FeasibilityAccumulator keeps the raw in-sums the
// admit-while-feasible loops read, AffectanceAccumulator the clamped
// in/out-sums of Algorithm 1's 1/2-budget, and each Add streams only its
// own arrays; SeparationOracle evaluates eta/zeta separation predicates in
// the decay domain without any pow on the hot path.
//
// The matrices fall into two kinds:
//   * the link planes (LinkPlanes, link_system.h): the cross decays
//     f(s_w, r_v) and the min-endpoint decays.  They depend only on the
//     space and the links, so a system may carry one shared copy (the
//     engine builds it once per sampled geometry, from the points) that
//     every cache over it reads; a cache on a system without them builds
//     private planes with the same builder, gathered from the space's
//     matrix (filling a lazy space once, so later caches on the system
//     only gather);
//   * the affectance planes aff_raw (w-major) and its transpose
//     (v-major), which depend on power and beta.  A build writes only
//     these: aff_raw from the cross plane, the transpose as a blocked copy
//     of its bits.
// The cross plane also backs the CrossDecay query and the normalised-gain
// kernel of the power-control oracles (power_control.h);
// KernelArena rebuilds a cache slot in place so batched/swept runs stop
// paying the allocator per instance.
//
// Bit-exactness contract: the naive per-query references in
// tests/oracles/oracles.h (AffectanceRawNaive, InAffectanceNaive, SinrNaive,
// ...) recompute every quantity from the space on every call -- the noise
// factor c_v per pair, four pows per link distance.  For the same (system,
// power), every query method here returns *bit-for-bit* the double its
// reference returns: the cached entries are computed with the identical
// floating-point expression (same association order; c_v from
// NoiseFactorOrZero here, from the references' own NoiseFactorNaive there),
// and aggregate sums run in the same iteration order.
// The tests compare with EXPECT_EQ.  Two non-obvious points:
//   * LinkDistance takes one pow of the min endpoint decay, where the
//     reference takes the min of four pows.  The two agree whenever
//     pow(., 1/zeta) keeps the order of the four decays; IEEE does not
//     promise that of pow, so it is not assumed -- tests/kernel_test.cc
//     checks the equality on every pair of its instance sweep (zeta 1, 2.2
//     and 3), and the separation predicates the algorithms run decide in
//     the decay domain instead (SeparationOracle below).  The min-pair plane
//     itself keeps the min of the four decays, with no pow at all;
//   * x / x == 1.0 exactly in IEEE arithmetic, so under uniform power the
//     ratio P_w / P_v can be elided from the affectance expression without
//     changing the rounded result.
// The only deliberate deviation is SeparationOracle's fast path, which
// compares in the decay domain (m >= eta^zeta * f_vv instead of
// m^{1/zeta} >= eta * f_vv^{1/zeta}); the two forms are equivalent in exact
// arithmetic and the oracle falls back to the pow expression inside a
// 1e-9 relative guard band, so decisions match the reference except for
// inputs engineered to sit within ~1e-9 of a separation threshold.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sinr/admission.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

// Precomputed affectance/distance kernels for one (LinkSystem, power) pair.
// Holds a reference to the system; the system (and its decay space and
// shared link planes) must outlive the cache.  Construction costs O(n^2)
// time and memory: 2 n^2 affectance entries, plus 2 n^2 plane entries when
// the system carries no shared planes.
class KernelCache {
 public:
  KernelCache(const LinkSystem& system, PowerAssignment power);

  int NumLinks() const noexcept { return n_; }
  const LinkSystem& system() const noexcept { return *system_; }
  const PowerAssignment& power() const noexcept { return power_; }

  // f_vv, hoisted out of the space.
  double LinkDecay(int v) const {
    return link_decay_[static_cast<std::size_t>(v)];
  }

  bool CanOvercomeNoise(int v) const {
    return can_overcome_[static_cast<std::size_t>(v)] != 0;
  }

  // c_v = beta / (1 - beta N f_vv / P_v); only meaningful when
  // CanOvercomeNoise(v).
  double NoiseFactor(int v) const {
    return noise_factor_[static_cast<std::size_t>(v)];
  }

  // a_w(v) = c_v * (P_w / P_v) * f_vv / f_wv (Sec. 2.4) without the
  // min(1, .) clamp; 0 when w == v or when l_v cannot overcome noise
  // (callers check CanOvercomeNoise first, as every algorithm in the
  // library does).  The unclamped form is what feasibility sums: sum_w
  // raw-a_w(v) <= 1 is *exactly* SINR_v >= beta, whereas the clamp can
  // under-count a single overwhelming interferer (e.g. the edge pairs of
  // the Theorem 3/6 constructions, whose affectance is 1 + epsilon).
  double AffectanceRaw(int w, int v) const {
    return aff_raw_[static_cast<std::size_t>(w) * static_cast<std::size_t>(n_) +
                    static_cast<std::size_t>(v)];
  }

  double Affectance(int w, int v) const {
    const double raw = AffectanceRaw(w, v);
    return raw < 1.0 ? raw : 1.0;
  }

  // a_w(v) for every w, contiguous: row v of the transposed plane, whose
  // entries are AffectanceRaw(w, v)'s bits.  The in-sum loops read it.
  std::span<const double> AffectanceIntoRow(int v) const {
    const std::size_t n = static_cast<std::size_t>(n_);
    return {aff_raw_t_.data() + static_cast<std::size_t>(v) * n, n};
  }

  // f_wv = f(s_w, r_v), from the cross plane; bit-identical to
  // LinkSystem::CrossDecay.
  double CrossDecay(int w, int v) const {
    return cross_decay_[static_cast<std::size_t>(w) *
                            static_cast<std::size_t>(n_) +
                        static_cast<std::size_t>(v)];
  }

  // Normalised-gain kernel of the power-control fixed point (Foschini-
  // Miljanic): B(v, w) = beta * f_vv / f(s_w, r_v), zero diagonal.
  // Computed on demand from the cached decays and the cross plane
  // (beta * LinkDecay / CrossDecay) -- without charging every KernelCache
  // build an n x n matrix only the power-control oracle reads.
  double NormalizedGain(int v, int w) const {
    if (w == v) return 0.0;
    return system_->config().beta * LinkDecay(v) / CrossDecay(w, v);
  }

  // min{f(s_v,r_w), f(s_w,r_v), f(s_v,s_w), f(r_v,r_w)}: the link
  // quasi-distance before the ^{1/zeta}; zeta-independent.  Symmetric only
  // when the decay space is (the sender-sender / receiver-receiver legs are
  // ordered pairs).
  double MinPairDecay(int v, int w) const {
    return min_pair_decay_[static_cast<std::size_t>(v) *
                               static_cast<std::size_t>(n_) +
                           static_cast<std::size_t>(w)];
  }

  // --- aggregate queries ---------------------------------------------------

  // a_S(v) and a_v(S), clamped; links equal to v inside S contribute 0.
  double InAffectance(std::span<const int> S, int v) const;
  double OutAffectance(int v, std::span<const int> S) const;
  // Feasibility: the unclamped a_S(v) <= 1 for every v in S (equivalent to
  // SINR_v >= beta for every link), and false when some v in S cannot
  // overcome noise.  K-feasibility: a_S(v) <= 1/K.
  bool IsFeasible(std::span<const int> S) const;
  bool IsKFeasible(std::span<const int> S, double K) const;
  // max_{v in S} a_S(v); 0 for sets of size < 2.
  double MaxInAffectance(std::span<const int> S) const;

  // Raw SINR of l_v when exactly the links in S transmit, against the
  // cache's power assignment (v need not be in S; its own entry is skipped
  // if present): P_v / f_vv over N plus the interference of S, summed in S
  // order from the cached cross-decay row.  Infinity when noise and
  // interference are both zero.  The per-slot success checks of the
  // contention and dynamics simulators (random access, the regret game)
  // run on this.
  double Sinr(int v, std::span<const int> S) const;

  // d_vv = f_vv^{1/zeta} and d(l_v, l_w); one pow per call against cached
  // decays.  l_v is eta-separated from L iff d(l_v, l_w) >= eta * d_vv for
  // every w in L (v's own entry, if present, is skipped).
  double LinkLength(int v, double zeta) const;
  double LinkDistance(int v, int w, double zeta) const;
  bool IsSeparatedFrom(int v, std::span<const int> L, double eta,
                       double zeta) const;

  // Link ids sorted by non-decreasing f_vv (ties by id), as
  // LinkSystem::OrderByDecay but against the cached decay array.
  std::vector<int> OrderByDecay() const;

  // True when every power entry is bitwise identical (enables the
  // ratio-elision fast path during construction; queries are unaffected).
  bool HasUniformPower() const noexcept { return uniform_power_; }

  // Bytes the cache itself holds: the affectance matrices, the per-link
  // arrays and any private link planes (capacity, so a warm arena slot
  // reports what it actually retains).  Shared planes are not counted:
  // their owner (the system's creator) holds them.
  long long MemoryBytes() const noexcept;

 private:
  friend class FeasibilityAccumulator;
  friend class AffectanceAccumulator;
  friend class KernelArena;

  // Empty cache (n = 0, no system): every query but NumLinks would
  // dereference the null system, so only KernelArena -- which always
  // Rebuilds before handing the cache out -- may construct one.
  KernelCache() = default;

  // (Re)builds the cache for (system, power): the per-link arrays, the
  // private link planes when the system has no shared ones, then aff_raw
  // row by row from the cross plane and aff_raw_t as its blocked
  // transpose.  Counts 2 n^2 sinr.kernel_entries events.  Warm rebuilds
  // allocate nothing.
  void Build(const LinkSystem& system, PowerAssignment power);

  const LinkSystem* system_ = nullptr;
  PowerAssignment power_;
  int n_ = 0;
  bool uniform_power_ = true;
  std::vector<double> link_decay_;    // f_vv
  std::vector<char> can_overcome_;    // P_v / f_vv > beta N
  std::vector<double> noise_factor_;  // c_v (0 when !can_overcome_)
  std::vector<double> aff_raw_;       // [w*n + v] = a_w(v), unclamped
  std::vector<double> aff_raw_t_;     // [v*n + w] = a_w(v)  (transpose)
  // Private link planes, built only for a system without shared ones and
  // kept across arena rebuilds.  Heap-held, so the plane pointers below
  // stay valid when the cache is copied or moved.
  std::shared_ptr<LinkPlanes> own_planes_;
  const double* cross_decay_ = nullptr;     // [w*n + v] = f(s_w, r_v)
  const double* min_pair_decay_ = nullptr;  // [v*n + w]
};

// Reusable KernelCache storage: one cache slot, rebuilt in place instead of
// reallocated.  Same-shape rebuilds (the batch and sweep runners build
// thousands of caches of identical n) touch the allocator zero times once
// the slot is warm; different shapes simply re-grow.  The rebuilt cache is
// bit-identical to a freshly constructed KernelCache over the same
// (system, power) -- Build overwrites every entry, so nothing of the
// previous instance survives.  The slot points at a system's shared planes
// without owning them, so they die with their owner (the engine's
// geometry cache), not with the arena's last build.  One arena per
// worker thread; the returned reference is valid until the next Rebuild.
class KernelArena {
 public:
  // The returned reference is invalidated by the next Rebuild, and the
  // rebuilt cache holds a pointer into `system` -- do not keep either
  // beyond the system's lifetime (there is deliberately no accessor for
  // the last-built cache: it would dangle once the batch's instances are
  // destroyed).
  const KernelCache& Rebuild(const LinkSystem& system, PowerAssignment power);

  long long rebuilds() const noexcept { return rebuilds_; }
  // Rebuilds whose link count matched the warm slot's, so every matrix
  // resize was a no-op and the allocator (and, for same-shape slabs, the
  // pre-clearing memsets) were skipped entirely -- the case the arena
  // exists for.  rebuilds() - warm_skips() is the number of cold/grow
  // builds (first touch, or a cell-shape change mid-sweep).
  long long warm_skips() const noexcept { return warm_skips_; }

 private:
  KernelCache slot_;
  long long rebuilds_ = 0;
  long long warm_skips_ = 0;
};

// The member list both accumulators keep: admission order plus a
// membership mask.
class AccumulatorMembers {
 public:
  const std::vector<int>& members() const noexcept { return members_; }
  int size() const noexcept { return static_cast<int>(members_.size()); }
  bool Contains(int v) const {
    return in_set_[static_cast<std::size_t>(v)] != 0;
  }

 protected:
  explicit AccumulatorMembers(int n)
      : in_set_(static_cast<std::size_t>(n), 0) {}
  void Insert(int v);
  void Reset();

 private:
  std::vector<int> members_;
  std::vector<char> in_set_;
};

// Running raw in-sums over a growing set of links: the feasibility form the
// admit-while-feasible loops (greedy, random and weighted capacity, the
// auction, LQF / greedy-by-decay queue slots) read.  Add is O(n) over one
// array; queries are O(1) and CanAddFeasibly O(|members|).  Sums accumulate
// in insertion order, so after Add(s_1), ..., Add(s_k):
//     InRaw(v) == ((0 + a_{s_1}(v)) + a_{s_2}(v)) + ... + a_{s_k}(v),
// unclamped: bit-for-bit the sum KernelCache::IsFeasible forms.  Clear
// empties the set in O(n) without freeing, so a per-slot loop reuses one.
class FeasibilityAccumulator : public AccumulatorMembers {
 public:
  explicit FeasibilityAccumulator(const KernelCache& kernel);

  void Add(int v);
  void Clear();

  double InRaw(int v) const { return in_raw_[static_cast<std::size_t>(v)]; }

  // True iff members() + {v} is feasible, deciding exactly as the naive
  // push-IsFeasible-pop loop does: the candidate's in-affectance is the
  // running raw sum (its own entry contributes a trailing +0), and each
  // member's new total is its running sum plus the candidate's row entry.
  // The caller must have checked kernel.CanOvercomeNoise(v).  Counts one
  // sinr.admission_checks event per call.
  bool CanAddFeasibly(int v) const;

 private:
  const KernelCache* kernel_;
  std::vector<double> in_raw_;
};

// Running clamped in/out-affectance sums over a growing set of links: the
// form Algorithm 1's 1/2-budget loop reads.  Add is O(n) over two arrays;
// queries are O(1).  Sums accumulate in insertion order, so after
// Add(s_1), ..., Add(s_k):
//     In(v)  == kernel.InAffectance({s_1..s_k}, v)   bit-for-bit,
//     Out(v) == kernel.OutAffectance(v, {s_1..s_k})  bit-for-bit.
class AffectanceAccumulator : public AccumulatorMembers {
 public:
  explicit AffectanceAccumulator(const KernelCache& kernel);

  void Add(int v);

  // Sum over current members w of min(1, a_w(v)) resp. min(1, a_v(w)).
  double In(int v) const { return in_[static_cast<std::size_t>(v)]; }
  double Out(int v) const { return out_[static_cast<std::size_t>(v)]; }

  // Algorithm 1's admission budget a_v(X) + a_X(v) <= 1/2.
  bool BudgetWithinHalf(int v) const { return Out(v) + In(v) <= 0.5; }
  // Algorithm 1's final filter a_X(v) <= 1.
  bool InWithinOne(int v) const { return In(v) <= 1.0; }

 private:
  const KernelCache* kernel_;
  std::vector<double> in_, out_;
};

// Separation predicates for fixed (eta, zeta), evaluated in the decay
// domain: d(l_v, l_w) >= eta * d_vv  <=>  MinPairDecay >= eta^zeta * f_vv
// (exact arithmetic).  No pow on the hot path; a 1e-9 relative guard band
// around the threshold falls back to the pow comparison, so decisions
// are bit-compatible with KernelCache::IsSeparatedFrom except for inputs
// within the band of a threshold.
class SeparationOracle {
 public:
  SeparationOracle(const KernelCache& kernel, double eta, double zeta);

  // d(l_v, l_w) >= eta * d_vv (asymmetric: v's length sets the scale).
  bool IsSeparated(int v, int w) const;

  // True iff IsSeparated(v, w) for every w in L (entries equal to v skip).
  bool IsSeparatedFrom(int v, std::span<const int> L) const;

  // d(l_v, l_w) < eta * max(d_vv, d_ww): the conflict test of the
  // separation partition (Lemma B.3).
  bool ConflictMaxLength(int v, int w) const;

 private:
  bool Decide(double min_pair, double scale_decay) const;

  const KernelCache* kernel_;
  double eta_;
  double inv_zeta_;
  double eta_pow_;  // eta^zeta
  static constexpr double kBand = 1e-9;
};

// The dense backend of the admission loops (admission.h).
template <>
struct Backend<KernelCache> {
  using Feasibility = FeasibilityAccumulator;
  using Budget = AffectanceAccumulator;
  class Separation {
   public:
    Separation(const KernelCache& kernel, double eta, double zeta)
        : oracle_(kernel, eta, zeta) {}
    bool FromMembers(const Budget& acc, int v) const {
      return oracle_.IsSeparatedFrom(v, acc.members());
    }

   private:
    SeparationOracle oracle_;
  };
};

inline bool IsFeasibleSet(const KernelCache& kernel, std::span<const int> S) {
  return kernel.IsFeasible(S);
}

}  // namespace decaylib::sinr
