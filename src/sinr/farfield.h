// Certified far-field affectance aggregation: the O(n + cells) kernel tier.
//
// The dense KernelCache materialises every pairwise affectance, which caps
// instances at a few thousand links (O(n^2) memory and pow calls).
// FarFieldKernel replaces the matrices with the geometry they were derived
// from: for geometric decay f(p, q) = |p - q|^alpha and uniform power, the
// affectance a_w(v) = c_v * f_vv / |s_w - r_v|^alpha is a monotone function
// of one distance, so the contribution of every sender in a distant grid
// cell can be *pooled* -- bounded above and below through the cell's tight
// bounding box -- instead of evaluated pairwise.
//
// Error certification (never trusted, always carried):
//   * Per pooled cell, the box distance range [d_lo, d_hi] from the
//     receiver gives
//       count * K / d_hi^alpha  <=  sum of contributions  <=  count * K / d_lo^alpha,
//     with a multiplicative 1e-9 guard absorbing the fp rounding of the
//     bound arithmetic itself.  Bounds are on the *raw* (unclamped)
//     affectance, the feasibility form.
//   * The near field is exact: cells whose box comes closer than the ring
//     radius R0 = diag / (2^{1/alpha} - 1) (diag = cell * sqrt(2)) are
//     evaluated pairwise with geom::GeometricDecay -- the same expression
//     DecaySpace::Geometric feeds the dense path, so the exact terms are
//     bit-identical to the dense matrix entries.  Beyond R0 a cell's
//     upper/lower contribution ratio is at most (1 + diag/d_lo)^alpha <= 2.
//   * No query asks for a width: each stops as soon as its interval clears
//     the decision band (below), and one that cannot falls back to the
//     exact fold.
//
// The cell pyramid (every certified query: FarFieldAccumulator's candidate
// checks, its member queries and IsFeasibleCertified):
//   * Each endpoint grid carries a static pyramid, an implicit quadtree:
//     level 0 holds the occupied cells, each level above merges the 2 x 2
//     blocks of the level below, up to one root, and every node keeps the
//     tight box of the endpoints under it.  The accumulator keeps per-node
//     member counts (receiver side: also the sum and max of the members'
//     c_w * f_ww), updated along one leaf-to-root chain per Add.
//   * Opening rule.  A query starts with the roots pooled and, while its
//     interval straddles the decision band, opens the widest pooled
//     internal node: each child with members is pooled in turn (the same
//     box bound at any level; a box containing the query point just has
//     an infinite upper end), except a leaf within the near ring R0,
//     whose members run pairwise.  A pooled leaf beyond R0 is final (its
//     ratio-<= 2 certificate), so a query with every internal node opened
//     holds the terms of a per-cell walk over every occupied leaf, and one
//     still straddling the band there falls back to the exact fold.
//     Coarse nodes inside their own ring (ratio > 2, or unbounded) are
//     pooled too, because a decision needs the interval to clear the
//     band, not a width: Barnes-Hut's node-local rule (open every node
//     within diag_node / (2^{1/alpha} - 1)) opens within ~5 * 2^l cells at
//     level l for alpha = 3, and measured 386 visited nodes per greedy
//     check at n = 4096 (528 occupied cells) against 22 for this rule.
//   * Cost model.  A decided check visits the nodes on the paths from the
//     roots to the candidate's neighbourhood plus the pooled siblings
//     along them, O(log cells) nodes when the sum sits far from the band,
//     and at most every occupied leaf (plus its O(cells / 3) ancestors)
//     when it does not; bench_e22_farfield prints the visited nodes per
//     check (sinr.farfield_cells_visited).  The same walk, with its own
//     stop rule, seeds a new member's in-sum bracket for the headroom test
//     and certifies Algorithm 1's final filter and set feasibility over the
//     whole set, so the budget role keeps no per-member bracket and its Add
//     is O(levels).  A member's walk leaves the member itself out: its own
//     sender leaf runs pairwise and each ancestor pools count - 1.
//     Separation prunes every node whose box lies beyond the separation
//     radius from both endpoints, so it visits the ancestors of the few
//     leaves near the candidate.
//   * Descend-on-straddle keeps every decision equal to dense: each
//     interval the walk returns is a valid certificate, a decision is
//     taken from it only outside the band, and the exact and in-band paths
//     (AffectanceExact, CatchUp, the exact folds) are untouched.
//
// Decision contract vs the dense path (what the engine's signature gate
// relies on; the admission loops of sinr/admission.h run unchanged over
// either accumulator):
//   * epsilon = 0: every query below runs the exact expressions in the
//     dense iteration order -- results are bit-identical to KernelCache and
//     the dense accumulators, and so are RunAlgorithm1 / ScheduleLinks.
//   * epsilon > 0 pools (its value is not read: 0 is the exact oracle,
//     anything above it the pooled mode).  Threshold *decisions*
//     (feasibility vs 1, Algorithm 1's budget vs 0.5 and its final
//     a_X(v) <= 1 filter, separation) are taken from the certified
//     interval only when it clears the threshold by an absolute 1e-9 band;
//     otherwise the decision falls back to the exact dense expression in
//     the dense summation order.  The final filter can only certify
//     acceptance from the member's raw in-sum interval (the clamped sum is
//     at most the raw one).  Decisions equal dense, and so does every
//     aggregate built from them, except for inputs engineered to sit within
//     ~1e-9 of a threshold (the same caveat SeparationOracle already
//     carries).
//
// Pooling requires uniform power (the per-pair factor P_w / P_v would
// otherwise vary inside a cell); non-uniform assignments silently use the
// exact path everywhere, staying correct, just dense-speed.  The engine
// additionally rejects kFarField specs with shadowing (sigma_db != 0), whose
// decay is no longer a function of distance -- see ValidateScenarioSpec.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "geom/grid.h"
#include "geom/point.h"
#include "sinr/admission.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

struct FarFieldConfig {
  // A switch: 0 makes every query exact (bit-identical to dense), and any
  // value above 0 pools.  Only whether it is 0 is read.
  double epsilon = 1e-3;
  // Grid occupancy target; coarser cells mean fewer cells to pool but a
  // larger exact near ring.
  int target_per_cell = 8;
};

// Matrix-free SINR kernel over link endpoint geometry.  Holds copies of the
// endpoint positions; O(n + cells) memory.
class FarFieldKernel {
 public:
  // Endpoints drawn from a node point set (the engine's shape): link v runs
  // senders[links[v].sender] -> points[links[v].receiver].
  FarFieldKernel(std::span<const geom::Vec2> points, std::span<const Link> links,
                 double alpha, SinrConfig config, PowerAssignment power,
                 FarFieldConfig farfield = {});

  // Endpoints given directly (bench/synthetic instances with no node array).
  FarFieldKernel(std::vector<geom::Vec2> senders,
                 std::vector<geom::Vec2> receivers, double alpha,
                 SinrConfig config, PowerAssignment power,
                 FarFieldConfig farfield = {});

  int NumLinks() const noexcept { return n_; }
  double alpha() const noexcept { return alpha_; }
  const SinrConfig& config() const noexcept { return config_; }
  const PowerAssignment& power() const noexcept { return power_; }
  bool HasUniformPower() const noexcept { return uniform_power_; }
  // Occupied cells of the sender grid: the leaves of the sender pyramid.
  int SenderCells() const noexcept { return senders_py_.leaves; }
  geom::Vec2 Sender(int v) const { return senders_[static_cast<std::size_t>(v)]; }
  geom::Vec2 Receiver(int v) const {
    return receivers_[static_cast<std::size_t>(v)];
  }

  // f_vv, c_v and the noise test -- same expressions as KernelCache, so the
  // values are bit-identical to the dense ones over the same geometry.
  double LinkDecay(int v) const {
    return link_decay_[static_cast<std::size_t>(v)];
  }
  bool CanOvercomeNoise(int v) const {
    return can_overcome_[static_cast<std::size_t>(v)] != 0;
  }
  double NoiseFactor(int v) const {
    return noise_factor_[static_cast<std::size_t>(v)];
  }

  // a_w(v) unclamped, evaluated from geometry with the dense entry's exact
  // expression (bit-identical to KernelCache::AffectanceRaw).
  double AffectanceExact(int w, int v) const;

  struct Interval {
    double lower = 0.0;
    double upper = 0.0;
  };

  // Raw in-affectance summed exactly in S order: bit-identical to the dense
  // IsKFeasible row fold over S.
  double InAffectanceRawExact(std::span<const int> S, int v) const;

  // Feasibility of S (every member's raw in-sum <= 1), bit-identical in
  // decision to KernelCache::IsFeasible.  A member that cannot overcome
  // noise rejects.  Pooled, S is added to one FarFieldAccumulator in S
  // order and each member decides through FarFieldAccumulator::
  // InRawWithinOne: the sender-pyramid walk outside the 1e-9 band, the
  // exact S-order fold inside it.  epsilon = 0, non-uniform power and a set
  // that repeats an id run the exact fold for every member.
  bool IsFeasibleCertified(std::span<const int> S) const;

  long long MemoryBytes() const noexcept;

 private:
  friend class FarFieldAccumulator;
  friend class FarFieldFeasibilityAccumulator;

  // One node of an endpoint pyramid (an implicit quadtree over the grid).
  // Level 0 holds the occupied grid cells; each level above merges the 2 x
  // 2 blocks of the level below, up to a single root.  The box is tight
  // over the endpoints under the node.
  struct Node {
    double min_x = 0.0;
    double min_y = 0.0;
    double max_x = 0.0;
    double max_y = 0.0;
    int first = 0;  // offset into children (internal nodes)
    int count = 0;  // child count; 0 at a leaf
  };
  struct Pyramid {
    std::vector<Node> nodes;    // leaves [0, leaves), then level by level
    std::vector<int> children;  // internal nodes' children, node by node
    std::vector<int> parent;    // per node; -1 at the root
    std::vector<int> leaf_of;   // link -> leaf
    int leaves = 0;
    // Exact near ring radius of a leaf: within it, a leaf's members are
    // always evaluated pairwise.
    double near = 0.0;

    bool IsLeaf(int node) const noexcept { return node < leaves; }
    int Root() const noexcept { return static_cast<int>(nodes.size()) - 1; }
    std::span<const int> Children(int node) const {
      const Node& n = nodes[static_cast<std::size_t>(node)];
      return {children.data() + n.first, static_cast<std::size_t>(n.count)};
    }
    long long MemoryBytes() const noexcept;
  };

  // Absolute decision band around thresholds (1.0 feasibility, 0.5 budget):
  // outside it the certified bound decides; inside it the exact dense
  // expression does.  The dense fp fold's own error at these magnitudes is
  // ~1e-12, far inside the band, so banded decisions match the dense bit
  // pattern except for adversarial inputs within ~1e-9 of a threshold.
  static constexpr double kBand = 1e-9;
  // Multiplicative guard absorbing the fp rounding of bound arithmetic
  // (box distances, pow, pooled products); the real-valued bound is
  // widened by this factor before use so certificates stay honest.
  static constexpr double kGuard = 1e-9;

  void Init(FarFieldConfig farfield);
  // The pyramid over `grid`'s occupied cells, with leaf near ring `near`.
  static Pyramid BuildPyramid(const geom::UniformGrid& grid,
                              std::span<const geom::Vec2> pts, double near);
  // Euclidean distance range from p to a node's tight box (lo = 0 when p is
  // inside the box).
  static void BoxDistance(const Node& c, geom::Vec2 p, double* lo,
                          double* hi);
  // Squared distance lower bound to the box, pow-free (node pruning).
  static double BoxDistanceSqLower(const Node& c, geom::Vec2 p);

  // pow(d, alpha) for the *bound* arithmetic only: integral alpha (the
  // common 2..8 path-loss exponents) runs as repeated multiplication --
  // roughly an order of magnitude cheaper than std::pow on the admission
  // hot loop, where it executes twice per pooled cell per check.  The
  // <= few-ulp deviation from pow's correctly-rounded result is absorbed
  // by kGuard (any valid interval certifies the same decision), so this
  // must never feed an exact path -- those stay on geom::GeometricDecay's
  // std::pow for bit-identity with the dense kernel.
  double BoundPow(double d) const {
    if (alpha_int_ == 0) return std::pow(d, alpha_);
    double r = d;
    for (int e = alpha_int_ - 1; e > 0; --e) r *= d;
    return r;
  }

  // AffectanceExact(w, v) respelled for BOUND arithmetic: sqrt + BoundPow
  // instead of hypot + pow, within a few ulps of the exact value (absorbed
  // by kGuard at the consumers).  Assumes the pooled preconditions already
  // hold (uniform power); never a substitute for an exact fallback.
  double AffectanceNear(int w, int v) const {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (w == v || !can_overcome_[sv]) return 0.0;
    const geom::Vec2 d =
        senders_[static_cast<std::size_t>(w)] - receivers_[sv];
    return cf_[sv] / BoundPow(std::sqrt(d.NormSq()));
  }

  int n_ = 0;
  double alpha_ = 0.0;
  int alpha_int_ = 0;  // alpha when integral in [1, 16], else 0 (use pow)
  SinrConfig config_;
  PowerAssignment power_;
  bool uniform_power_ = true;
  bool pooling_ = false;  // uniform power and epsilon > 0
  std::vector<geom::Vec2> senders_;
  std::vector<geom::Vec2> receivers_;
  std::vector<double> link_decay_;    // f_vv
  std::vector<char> can_overcome_;    // P_v / f_vv > beta N
  std::vector<double> noise_factor_;  // c_v (0 when !can_overcome_)
  std::vector<double> cf_;            // c_v * f_vv (0 when !can_overcome_)

  // Pyramids over both endpoint sets (senders pool in-affectance,
  // receivers out-pressure).
  Pyramid senders_py_;
  Pyramid receivers_py_;
};

// Running exact in-affectance sums over a growing admitted set, plus
// certified candidate checks against the member set pooled per pyramid
// node -- the far-field side of the accumulator contract in admission.h.
// This class is the budget role (Algorithm 1's loop and its separation
// test); FarFieldFeasibilityAccumulator below adds the feasibility role.
// The member sums accumulate in insertion order with the dense entry
// expressions, so for members they are bit-identical to the dense
// accumulators' (a non-member contributes +0.0 at its own Add in the dense
// version, which cannot change an IEEE sum of non-negative terms).  There
// is deliberately no Remove: the admission loops only ever grow, and
// removal would reopen the ulp-drift caveat the dense accumulator
// documents.
class FarFieldAccumulator {
 public:
  explicit FarFieldAccumulator(const FarFieldKernel& kernel);

  // O(levels) pyramid counts in every mode; member sums fold lazily
  // (CatchUp).  The caller must have checked kernel.CanOvercomeNoise(v).
  void Add(int v);

  const std::vector<int>& members() const noexcept { return members_; }
  int size() const noexcept { return static_cast<int>(members_.size()); }
  bool Contains(int v) const {
    return in_set_[static_cast<std::size_t>(v)] != 0;
  }

  // Algorithm 1's final filter a_X(v) <= 1 for a member v (DL_CHECKed):
  // the dense In(v) <= 1.0 decision.  Pooled mode certifies acceptance
  // from v's raw in-sum interval over the other members (clamped <= raw),
  // walked over the sender pyramid like a candidate's, outside the 1e-9
  // band; otherwise the member's clamped fold is caught up -- it is then
  // bit-identical to the dense accumulator's -- and compared exactly.
  bool InWithinOne(int v) const;

  // Set feasibility for a member v (DL_CHECKed): the dense InRaw(v) <= 1.0
  // over the members, decided as InWithinOne does but from both ends of
  // the raw interval (certified accept or reject outside the 1e-9 band),
  // then the caught-up raw fold.  FarFieldKernel::IsFeasibleCertified
  // calls it once per member.
  bool InRawWithinOne(int v) const;

  // The interval both member queries decide from: v's raw in-sum over the
  // other members, walked over the sender pyramid from the root and opened
  // while done(interval) fails and an internal node is pooled.  Pooled
  // mode only (DL_CHECKed).
  FarFieldKernel::Interval MemberInRawBounds(
      int v, bool (*done)(const FarFieldKernel::Interval&)) const;

  // Algorithm 1's admission budget a_v(X) + a_X(v) <= 0.5 (the dense
  // Out(v) + In(v)), certified from clamped sums pooled per pyramid node
  // with clamp-safe bounds, one walk over both pyramids; the exact dense
  // expressions decide inside the 1e-9 band (and everywhere at epsilon = 0
  // or non-uniform power).  A pooled member node in which some member's
  // pressure from v certainly clamps to 1 rejects at once (a_v(X) >= 1),
  // counted in sinr.farfield_clamp_rejects.
  bool BudgetWithinHalf(int v) const;

  // Dense SeparationOracle::IsSeparatedFrom(v, members()) decisions:
  // pyramid nodes whose box clears the candidate's separation radius from
  // both endpoints are skipped whole; members in nearer leaves run the
  // dense knife-edge expressions.  Always bit-identical to the dense
  // oracle's decision.
  bool IsSeparatedFromMembers(int v, double eta, double zeta) const;

 protected:
  // The sums a query bounds: v's raw or clamped in-sum over the sender
  // pyramid, or its clamped out-pressure over the receiver pyramid.
  enum class Term : char { kInRaw, kInClamped, kOutClamped };
  // A pooled node on a query's frontier: its bounds on the term's sum over
  // the members under it.
  struct Pooled {
    int node = 0;
    Term term = Term::kInRaw;
    bool leaf = false;  // pooled leaves are final; internal nodes open
    double lo = 0.0;
    double hi = 0.0;
  };

  bool Pooling() const noexcept { return kernel_->pooling_; }
  // Certified interval for the sum of `terms` at v over the members.  The
  // walk starts from the pyramid roots and, while done(interval) fails,
  // opens the widest pooled internal node; it stops once done holds or
  // only leaves are pooled.  A budget clamp (some member's pressure from v
  // certainly clamps to 1) returns the certified reject interval [1, inf)
  // at once.  For a member v both ends are certificates: its own sender
  // leaf runs pairwise and its ancestors pool the other members only.
  template <class Done>
  FarFieldKernel::Interval CandidateBounds(int v, std::span<const Term> terms,
                                           Done done) const;
  // Opens `node` for `term`: a leaf within the near ring (or, for a
  // member's in-sum, the leaf holding its own sender) runs pairwise into
  // *near, any other node is pooled onto frontier_ (a member's in-sum
  // leaving the member itself out).  Returns false when
  // the node certifies a budget clamp.  Counts one visited node.
  bool Open(Term term, int node, int v, double* near) const;
  FarFieldKernel::Interval FrontierInterval(double near) const;
  double ExactInRaw(int v) const;
  double ExactBudget(int v) const;
  // Extends member w's exact in-sums over the members appended since the
  // last catch-up, replaying the same additions in the same order the
  // dense accumulator performs eagerly -- the folded values are
  // bit-identical.  Every mode reads the exact sums through it: the
  // unpooled ones on every decision, the pooled one inside the band.
  void CatchUp(int w) const;

  const FarFieldKernel* kernel_;
  std::vector<int> members_;
  std::vector<char> in_set_;
  // Member in-sums (clamped and raw), indexed by link id (valid only for
  // members).  They are lazily exact: each fold is current only through
  // the first upto_[w] entries of members_, and CatchUp(w) extends it on
  // demand (mutable for that reason).
  mutable std::vector<double> in_m_, in_raw_m_;
  mutable std::vector<int> upto_;
  // Members grouped by pyramid leaf, and per-node member counts (on the
  // receiver side also the running sum / max of the members' c_w * f_ww),
  // kept along the leaf's ancestor chain on Add: O(levels).
  std::vector<std::vector<int>> sleaf_members_;
  std::vector<std::vector<int>> rleaf_members_;
  std::vector<int> snode_count_;
  std::vector<int> rnode_count_;
  std::vector<double> rnode_cf_sum_;
  std::vector<double> rnode_cf_max_;
  // Query scratch: the pooled frontier, the nodes visited by the current
  // query, and the pyramid walks' node stack and member collection.
  mutable std::vector<Pooled> frontier_;
  mutable long long visited_ = 0;
  mutable std::vector<int> stack_;
  mutable std::vector<int> sep_scratch_;
  mutable std::vector<char> sep_mark_;
};

// The feasibility role (admit-while-feasible): FarFieldAccumulator plus the
// dense FeasibilityAccumulator::CanAddFeasibly test, whose member headroom
// side reads a certified bracket of every member's raw in-sum.  The
// brackets are kept eagerly -- seeded on Add from the new member's pyramid
// interval, opened until its width is at most the headroom it certifies,
// then advanced by each later member's pressure, pooled per receiver leaf
// with no libm -- so headroom thresholds and their staleness triggers never
// force an exact fold.
class FarFieldFeasibilityAccumulator : public FarFieldAccumulator {
 public:
  explicit FarFieldFeasibilityAccumulator(const FarFieldKernel& kernel);

  // FarFieldAccumulator::Add, plus in the pooled mode the new member's
  // bracket (one pyramid walk) and its pressure on every member's bracket:
  // O(member leaves + |members|).
  void Add(int v);

  // Dense FeasibilityAccumulator::CanAddFeasibly decisions: candidate raw
  // in-sum vs 1, then every member's headroom vs the candidate's pressure.
  // Certified pooled bounds decide both tests outside the 1e-9 band; the
  // exact dense expressions decide inside it (and everywhere at epsilon = 0
  // or non-uniform power).
  bool CanAddFeasibly(int v) const;

 private:
  // Recomputes member i's certified d^2 headroom thresholds.  Called for
  // the new member on Add and lazily from CanAddFeasibly when a member's
  // in-raw sum has outgrown its pass threshold's validity (pass_limit_).
  void RefreshHeadroom(std::size_t i) const;

  // Certified brackets of the members' raw in-sums, indexed by link id; a
  // CatchUp collapses them onto the exact fold.
  mutable std::vector<double> in_lo_, in_hi_;
  // Per member (parallel to members_): d^2 thresholds certifying the
  // headroom test each way outside the decision band.  Maintained lazily
  // (mutable): a member's in-raw sum only grows, so a stale fail
  // threshold stays valid, and the pass threshold is computed for the
  // halved headroom so it stays valid until the headroom actually halves
  // -- pass_limit_ records the in-raw level where a refresh is due.
  mutable std::vector<double> t2_pass_;
  mutable std::vector<double> t2_fail_;
  mutable std::vector<double> pass_limit_;
};

// The far-field backend of the admission loops (admission.h).
template <>
struct Backend<FarFieldKernel> {
  // Both roles keep sums for members only and, in the pooled mode, fold
  // them lazily; only the feasibility role keeps the in-sum brackets its
  // headroom test reads.
  using Feasibility = FarFieldFeasibilityAccumulator;
  using Budget = FarFieldAccumulator;
  class Separation {
   public:
    Separation(const FarFieldKernel& /*kernel*/, double eta, double zeta)
        : eta_(eta), zeta_(zeta) {}
    bool FromMembers(const Budget& acc, int v) const {
      return acc.IsSeparatedFromMembers(v, eta_, zeta_);
    }

   private:
    double eta_;
    double zeta_;
  };
};

inline bool IsFeasibleSet(const FarFieldKernel& kernel,
                          std::span<const int> S) {
  return kernel.IsFeasibleCertified(S);
}

// There is one loop per algorithm (admission.h), run over either backend:
// capacity::RunAlgorithm1, GreedyFeasible and scheduling::ScheduleLinks /
// ValidateSchedule are single templates over sinr::AdmissionKernel, and at
// epsilon = 0 their outputs on this kernel are bit-identical to the dense
// ones over the same geometry.  Under kernel_mode=farfield the engine runs
// algorithm1, greedy and schedule on this kernel; the other task kinds
// build the dense kernel lazily.  The all-links shorthands below run the
// same loops; they stay only because perfbench's traced pass calls them.
using FarFieldAlg1Result = AdmissionResult;
using FarFieldSchedule = SlotSchedule;

// Algorithm 1 over every link.
FarFieldAlg1Result FarFieldRunAlgorithm1(const FarFieldKernel& kernel,
                                         double zeta);
// Decay-ordered admit-while-feasible over every link.
std::vector<int> FarFieldGreedyFeasible(const FarFieldKernel& kernel);
// Every link scheduled by repeated Algorithm 1 extraction.
FarFieldSchedule FarFieldScheduleLinks(const FarFieldKernel& kernel,
                                       double zeta);
// Every multi-link slot certified feasible, and the slots partition the
// candidates (multiset equality).
bool FarFieldValidateSchedule(const FarFieldKernel& kernel,
                              const FarFieldSchedule& schedule,
                              std::span<const int> candidates);

}  // namespace decaylib::sinr
