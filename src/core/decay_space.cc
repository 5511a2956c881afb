#include "core/decay_space.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/check.h"
#include "obs/registry.h"

namespace decaylib::core {

namespace {

// Fills of lazy geometric spaces, process-wide (docs/observability.md).
obs::Counter& FillCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("core.decay_space_fills");
  return counter;
}

// True iff some pair fails Distance > 0: two equal points, or a NaN
// coordinate (every distance to it is NaN).  Sorting a copy makes this
// O(n log n) instead of the O(n^2) pair scan.
bool HasCoincidentPoints(std::span<const geom::Vec2> points) {
  for (const geom::Vec2 p : points) {
    if (std::isnan(p.x) || std::isnan(p.y)) return true;
  }
  std::vector<geom::Vec2> sorted(points.begin(), points.end());
  const auto less = [](geom::Vec2 a, geom::Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  };
  std::sort(sorted.begin(), sorted.end(), less);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].x == sorted[i].x && sorted[i - 1].y == sorted[i].y) {
      return true;
    }
  }
  return false;
}

}  // namespace

DecaySpace::DecaySpace(int n, double fill) : n_(n) {
  DL_CHECK(n >= 1, "decay space needs at least one node");
  DL_CHECK(fill > 0.0, "off-diagonal fill decay must be positive");
  f_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), fill);
  for (int i = 0; i < n; ++i) {
    f_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
       static_cast<std::size_t>(i)] = 0.0;
  }
}

DecaySpace DecaySpace::FromMatrix(const std::vector<std::vector<double>>& m) {
  const int n = static_cast<int>(m.size());
  DL_CHECK(n >= 1, "empty matrix");
  DecaySpace space(n);
  for (int i = 0; i < n; ++i) {
    DL_CHECK(static_cast<int>(m[static_cast<std::size_t>(i)].size()) == n,
             "ragged decay matrix");
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      space.Set(i, j, m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  return space;
}

DecaySpace::DecaySpace(const DecaySpace& other)
    : n_(other.n_), points_(other.points_), alpha_(other.alpha_) {
  // The source may be filling concurrently: its matrix is only read once
  // its flag says the fill is complete, otherwise this copy stays lazy.
  const bool filled = other.filled_.load();
  if (filled) f_ = other.f_;
  filled_.store(filled);
}

DecaySpace::DecaySpace(DecaySpace&& other) noexcept
    : n_(other.n_),
      points_(std::move(other.points_)),
      alpha_(other.alpha_),
      f_(std::move(other.f_)) {
  filled_.store(other.filled_.load());
}

DecaySpace& DecaySpace::operator=(const DecaySpace& other) {
  if (this != &other) *this = DecaySpace(other);
  return *this;
}

DecaySpace& DecaySpace::operator=(DecaySpace&& other) noexcept {
  n_ = other.n_;
  points_ = std::move(other.points_);
  alpha_ = other.alpha_;
  f_ = std::move(other.f_);
  filled_.store(other.filled_.load());
  return *this;
}

DecaySpace DecaySpace::Geometric(std::span<const geom::Vec2> points,
                                 double alpha) {
  const int n = static_cast<int>(points.size());
  DL_CHECK(n >= 1, "no points");
  DL_CHECK(alpha > 0.0, "path loss exponent must be positive");
  DL_CHECK(!HasCoincidentPoints(points),
           "coincident points make an invalid decay space");
  return DecaySpace(std::vector<geom::Vec2>(points.begin(), points.end()),
                    alpha);
}

DecaySpace::DecaySpace(std::vector<geom::Vec2> points, double alpha)
    : n_(static_cast<int>(points.size())),
      points_(std::move(points)),
      alpha_(alpha),
      filled_(false) {}

void DecaySpace::Materialize() const { (void)Matrix(); }

double DecaySpace::LazyEntry(int p, int q) const {
  if (p == q) return 0.0;
  return geom::GeometricDecay(points_[static_cast<std::size_t>(p)],
                              points_[static_cast<std::size_t>(q)], alpha_);
}

void DecaySpace::Fill() const {
  const std::lock_guard<std::mutex> lock(fill_mutex_);
  if (filled_.load()) return;
  const std::size_t n = static_cast<std::size_t>(n_);
  std::vector<double> f(n * n, 0.0);
  // One GeometricDecay per unordered pair, mirrored: Distance is
  // hypot(a - b), b - a is exactly -(a - b) and hypot ignores sign, so
  // f(j, i) has the same bits as f(i, j).  Square tiles keep the mirrored
  // (column) writes cache-resident.
  constexpr std::size_t kTile = 64;
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, n);
    for (std::size_t j0 = i0; j0 < n; j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, n);
      for (std::size_t i = i0; i < i1; ++i) {
        const geom::Vec2 pi = points_[i];
        for (std::size_t j = std::max(j0, i + 1); j < j1; ++j) {
          const double v = geom::GeometricDecay(pi, points_[j], alpha_);
          DL_CHECK(v > 0.0, "decay between distinct nodes must be positive");
          f[i * n + j] = v;
          f[j * n + i] = v;
        }
      }
    }
  }
  f_ = std::move(f);
  filled_.store(true);
  FillCounter().Add();
}

long long DecaySpace::MemoryBytes() const noexcept {
  std::size_t bytes = points_.capacity() * sizeof(geom::Vec2);
  if (filled_.load()) {
    bytes += f_.capacity() * sizeof(double);
  }
  return static_cast<long long>(bytes);
}

DecaySpace DecaySpace::FromDistancePower(
    const std::vector<std::vector<double>>& d, double alpha) {
  const int n = static_cast<int>(d.size());
  DL_CHECK(n >= 1, "empty matrix");
  DL_CHECK(alpha > 0.0, "path loss exponent must be positive");
  DecaySpace space(n);
  for (int i = 0; i < n; ++i) {
    DL_CHECK(static_cast<int>(d[static_cast<std::size_t>(i)].size()) == n,
             "ragged distance matrix");
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      space.Set(i, j,
                std::pow(d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                         alpha));
    }
  }
  return space;
}

void DecaySpace::Set(int p, int q, double value) {
  DL_CHECK(p >= 0 && p < n_ && q >= 0 && q < n_, "node id out of range");
  DL_CHECK(p != q, "diagonal decays are fixed at 0");
  DL_CHECK(value > 0.0, "decay between distinct nodes must be positive");
  Materialize();
  f_[static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
     static_cast<std::size_t>(q)] = value;
}

void DecaySpace::SetSymmetric(int p, int q, double value) {
  Set(p, q, value);
  Set(q, p, value);
}

bool DecaySpace::IsSymmetric(double tol) const {
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      const double a = (*this)(i, j);
      const double b = (*this)(j, i);
      if (std::abs(a - b) > tol * std::max(a, b)) return false;
    }
  }
  return true;
}

double DecaySpace::MinDecay() const {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j) best = std::min(best, (*this)(i, j));
    }
  }
  return best;
}

double DecaySpace::MaxDecay() const {
  double best = 0.0;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j) best = std::max(best, (*this)(i, j));
    }
  }
  return best;
}

double DecaySpace::DecaySpread() const {
  return MaxDecay() / MinDecay();
}

std::optional<std::string> DecaySpace::Validate() const {
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      const double v = (*this)(i, j);
      if (i == j && v != 0.0) {
        return "diagonal entry f(p,p) must be 0";
      }
      if (i != j) {
        if (!(v > 0.0)) {
          return "off-diagonal decay must be positive (identity of "
                 "indiscernibles)";
        }
        if (!std::isfinite(v)) return "decay must be finite";
      }
    }
  }
  return std::nullopt;
}

DecaySpace DecaySpace::Scaled(double factor) const {
  DL_CHECK(factor > 0.0, "scale factor must be positive");
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      if (i != j) out.Set(i, j, (*this)(i, j) * factor);
    }
  }
  return out;
}

DecaySpace DecaySpace::SymmetrizedMin() const {
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      out.SetSymmetric(i, j, std::min((*this)(i, j), (*this)(j, i)));
    }
  }
  return out;
}

DecaySpace DecaySpace::SymmetrizedMax() const {
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      out.SetSymmetric(i, j, std::max((*this)(i, j), (*this)(j, i)));
    }
  }
  return out;
}

DecaySpace DecaySpace::SymmetrizedGeomMean() const {
  DecaySpace out(n_);
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      out.SetSymmetric(i, j, std::sqrt((*this)(i, j) * (*this)(j, i)));
    }
  }
  return out;
}

DecaySpace DecaySpace::Subspace(std::span<const int> nodes) const {
  const int k = static_cast<int>(nodes.size());
  DL_CHECK(k >= 1, "empty subspace");
  DecaySpace out(k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      out.Set(i, j, (*this)(nodes[static_cast<std::size_t>(i)],
                            nodes[static_cast<std::size_t>(j)]));
    }
  }
  return out;
}

QuasiMetric::QuasiMetric(const DecaySpace& space, double zeta)
    : space_(&space), zeta_(zeta) {
  DL_CHECK(zeta > 0.0, "zeta must be positive");
}

double QuasiMetric::operator()(int p, int q) const {
  if (p == q) return 0.0;
  return std::pow((*space_)(p, q), 1.0 / zeta_);
}

int QuasiMetric::size() const noexcept { return space_->size(); }

std::vector<std::vector<double>> QuasiMetric::Matrix() const {
  const int n = size();
  std::vector<std::vector<double>> d(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          (*this)(i, j);
    }
  }
  return d;
}

double QuasiMetric::MaxTriangleViolation() const {
  const int n = size();
  double worst = 0.0;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      if (y == x) continue;
      const double dxy = (*this)(x, y);
      for (int z = 0; z < n; ++z) {
        if (z == x || z == y) continue;
        worst = std::max(worst, dxy - (*this)(x, z) - (*this)(z, y));
      }
    }
  }
  return worst;
}

}  // namespace decaylib::core
