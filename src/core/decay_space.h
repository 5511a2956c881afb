// Decay spaces (Definition 2.1 of the paper).
//
// A decay space D = (V, f) is a discrete node set V together with a mapping
// f : V x V -> R>=0 that associates a *decay* with every ordered pair of
// nodes: the multiplicative reduction in signal strength from the first node
// to the second (channel gain G_uv = 1 / f(u, v)).  Decays satisfy
// non-negativity and the identity of indiscernibles, but need *not* be
// symmetric nor satisfy the triangle inequality -- they form a pre-metric.
//
// This class stores f as a dense row-major matrix; nodes are dense ids
// 0..size()-1.  The diagonal is fixed at 0 (what happens "at a point" is
// immaterial, Sec. 2.2 of the paper).
//
// Lazy geometric spaces.  A space built by Geometric(points, alpha) is fully
// defined by its points, so it keeps only the points and alpha -- O(n)
// memory -- until something reads an entry.  The first read through any
// entry accessor (operator(), Raw(), IsSymmetric, Min/MaxDecay,
// DecaySpread, Validate, the copy-producing Scaled / Symmetrized* /
// Subspace, Set / SetSymmetric, or an explicit Materialize()) fills the
// row-major matrix, exactly once and thread-safely: concurrent first reads
// of one shared const space block on a single fill and all see the same
// entries.  Each stored entry is geom::GeometricDecay(points[i], points[j],
// alpha), so a lazy space is bit-identical to an eager one.  Copies and
// moves carry the state as it is (a filled source copies its matrix, a
// lazy one copies its points).  Filling allocates 8 n^2 bytes; allocation
// failure propagates as std::bad_alloc, so entry accessors are not
// noexcept.  Spaces built any other way are filled at construction.
// Consumers that need only the geometry (sinr::FarFieldKernel,
// engine::PairLinksByDecayGrid) read the points directly and never fill.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geom/point.h"

namespace decaylib::core {

class DecaySpace {
 public:
  // An n-node space with all off-diagonal decays initialised to `fill`
  // (default 1, the uniform metric).
  explicit DecaySpace(int n, double fill = 1.0);

  // Copies and moves keep the fill state (see the header comment).  A
  // moved-from space must only be assigned to or destroyed.
  DecaySpace(const DecaySpace& other);
  DecaySpace(DecaySpace&& other) noexcept;
  DecaySpace& operator=(const DecaySpace& other);
  DecaySpace& operator=(DecaySpace&& other) noexcept;

  // Builds a space from a full n x n matrix.  Diagonal entries are ignored
  // and forced to 0.  Aborts on negative entries or a ragged matrix.
  static DecaySpace FromMatrix(const std::vector<std::vector<double>>& m);

  // Geometric decay space over planar points: f(p, q) = |p - q|^alpha.
  // This is the GEO-SINR special case; its metricity equals alpha when three
  // collinear points exist, and is at most alpha in general.  Lazy: O(n)
  // until the first entry read (header comment).  Aborts on coincident
  // points (checked in O(n log n)).
  static DecaySpace Geometric(std::span<const geom::Vec2> points, double alpha);

  // Geometric decay space over an explicit distance matrix (any metric):
  // f = d^alpha.
  static DecaySpace FromDistancePower(
      const std::vector<std::vector<double>>& d, double alpha);

  int size() const noexcept { return n_; }

  // f(p, q): decay of a signal sent at p as received at q.  Fills a lazy
  // space on first use.
  double operator()(int p, int q) const {
    return Matrix()[static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
                    static_cast<std::size_t>(q)];
  }

  // Sets f(p, q).  Requires p != q and value > 0 (identity of
  // indiscernibles: zero decay is reserved for p == q).
  void Set(int p, int q, double value);

  // Sets both f(p, q) and f(q, p).
  void SetSymmetric(int p, int q, double value);

  // True iff |f(p,q) - f(q,p)| <= tol * max(f(p,q), f(q,p)) for all pairs.
  bool IsSymmetric(double tol = 0.0) const;

  // Smallest / largest off-diagonal decay.  Require size() >= 2.
  double MinDecay() const;
  double MaxDecay() const;

  // Ratio MaxDecay()/MinDecay(); lg of this bounds the metricity (Def. 2.2).
  double DecaySpread() const;

  // nullopt when the matrix is a valid decay space, else a human-readable
  // description of the first violated axiom.
  std::optional<std::string> Validate() const;

  // Copy with every decay multiplied by `factor` > 0.  Note that metricity
  // zeta is *not* scale-invariant (the defining inequality is not homogeneous
  // in f); benches use this to study sensitivity to calibration offsets.
  DecaySpace Scaled(double factor) const;

  // Symmetrised copies: f'(p,q) = min/max/geometric-mean of the two
  // directions.  Used to feed symmetric-only algorithms (Prop. 1 requires
  // symmetry only when the original result did).
  DecaySpace SymmetrizedMin() const;
  DecaySpace SymmetrizedMax() const;
  DecaySpace SymmetrizedGeomMean() const;

  // Restriction of the space to the given nodes (in the given order).
  DecaySpace Subspace(std::span<const int> nodes) const;

  // Direct read-only access to the backing row-major matrix (fills a lazy
  // space first).
  std::span<const double> Raw() const {
    const std::size_t n = static_cast<std::size_t>(n_);
    return {Matrix(), n * n};
  }

  // Fills a lazy space now (a no-op once filled).  For callers that want
  // the O(n^2) cost paid at a known point rather than on first read.
  void Materialize() const;

  // Heap bytes held: the matrix (8 n^2) once filled, plus a lazy geometric
  // space's points (16 n).  Safe to call concurrently with a fill.
  long long MemoryBytes() const noexcept;

 private:
  // A lazy geometric space over `points` (Geometric() validates them).
  DecaySpace(std::vector<geom::Vec2> points, double alpha);

  const double* Matrix() const {
    if (!filled_.load()) [[unlikely]] Fill();
    return f_.data();
  }
  void Fill() const;

  int n_;
  // Geometric spaces: the points and exponent that define every entry
  // (empty for matrix-built spaces).  No const member modifies them.
  std::vector<geom::Vec2> points_;
  double alpha_ = 0.0;
  // Row-major n_ x n_.  Written only under fill_mutex_ before filled_ is
  // set (or by non-const members); read only after filled_ is seen set.
  mutable std::vector<double> f_;
  mutable std::atomic<bool> filled_{true};
  mutable std::mutex fill_mutex_;
};

// The quasi-metric induced by a decay space (Sec. 2.2): d(p,q) = f(p,q)^{1/zeta}.
// A thin view; does not copy the matrix.  When the decay space is symmetric,
// this is a metric by the definition of metricity.
class QuasiMetric {
 public:
  // `zeta` must be > 0; callers normally pass ComputeMetricity(space).zeta.
  QuasiMetric(const DecaySpace& space, double zeta);

  double operator()(int p, int q) const;
  int size() const noexcept;
  double zeta() const noexcept { return zeta_; }

  // Materialises the full quasi-distance matrix d = f^{1/zeta}.
  std::vector<std::vector<double>> Matrix() const;

  // Largest violation of the (directed) triangle inequality,
  // max_{x,y,z} [d(x,y) - d(x,z) - d(z,y)]; <= tol when zeta >= metricity.
  double MaxTriangleViolation() const;

 private:
  const DecaySpace* space_;
  double zeta_;
};

}  // namespace decaylib::core
