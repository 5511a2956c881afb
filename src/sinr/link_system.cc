#include "sinr/link_system.h"

#include <algorithm>

#include "core/check.h"
#include "obs/registry.h"
#include "sinr/admission.h"

namespace decaylib::sinr {

namespace {

// Plane-build work counters (docs/observability.md).
obs::Counter& PlaneBuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.plane_builds");
  return counter;
}

obs::Counter& PlaneEntryCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.plane_entries");
  return counter;
}

}  // namespace

long long LinkPlanes::MemoryBytes() const noexcept {
  return static_cast<long long>((cross.capacity() + min_pair.capacity()) *
                                sizeof(double));
}

void BuildLinkPlanes(const core::DecaySpace& space, std::span<const Link> links,
                     LinkPlanes& out) {
  const std::size_t n = links.size();
  out.n = static_cast<int>(n);
  // Every entry below is written, so a warm rebuild needs no clearing.
  out.cross.resize(n * n);
  out.min_pair.resize(n * n);
  double* cross = out.cross.data();
  double* min_pair = out.min_pair.data();
  std::vector<std::size_t> snd(n), rcv(n);
  for (std::size_t v = 0; v < n; ++v) {
    snd[v] = static_cast<std::size_t>(links[v].sender);
    rcv[v] = static_cast<std::size_t>(links[v].receiver);
  }
  // min_pair runs over 32 x 32 tiles, so its reads of cross[w*n + v]
  // (the transposed leg f(s_w, r_v)) stay cache-resident.  A min of the
  // four non-negative decays is one of them whatever the order, so its bits
  // match the naive expression's.
  constexpr std::size_t kTile = 32;

  if (!space.filled()) {
    // Lazy geometric: every entry is GeometricDecay of two points, 2 n^2
    // pows in all (the fill of the 2n-node matrix costs the same), and
    // the matrix is never touched.  Distance is hypot(a - b), which ignores
    // the sign of a - b, so f(q, p) has the bits of f(p, q): the
    // sender-sender and receiver-receiver legs, and with them min_pair, are
    // symmetric, and each unordered pair is evaluated once.
    const std::span<const geom::Vec2> pts = space.points();
    const double alpha = space.alpha();
    for (std::size_t w = 0; w < n; ++w) {
      const geom::Vec2 sw = pts[snd[w]];
      double* row = cross + w * n;
      for (std::size_t v = 0; v < n; ++v) {
        row[v] = geom::GeometricDecay(sw, pts[rcv[v]], alpha);
      }
    }
    for (std::size_t vb = 0; vb < n; vb += kTile) {
      const std::size_t ve = std::min(n, vb + kTile);
      for (std::size_t wb = vb; wb < n; wb += kTile) {
        const std::size_t we = std::min(n, wb + kTile);
        for (std::size_t v = vb; v < ve; ++v) {
          const geom::Vec2 sv = pts[snd[v]];
          const geom::Vec2 rv = pts[rcv[v]];
          for (std::size_t w = std::max(wb, v + 1); w < we; ++w) {
            const double sv_sw = geom::GeometricDecay(sv, pts[snd[w]], alpha);
            const double rv_rw = geom::GeometricDecay(rv, pts[rcv[w]], alpha);
            const double m = std::min(std::min(cross[v * n + w], cross[w * n + v]),
                                      std::min(sv_sw, rv_rw));
            min_pair[v * n + w] = m;
            min_pair[w * n + v] = m;
          }
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) min_pair[v * n + v] = 0.0;
  } else {
    // A filled matrix (any space): gather rows of it.
    const std::size_t m = static_cast<std::size_t>(space.size());
    const double* f = space.Raw().data();
    for (std::size_t w = 0; w < n; ++w) {
      const double* row_sw = f + snd[w] * m;
      double* row = cross + w * n;
      for (std::size_t v = 0; v < n; ++v) row[v] = row_sw[rcv[v]];
    }
    for (std::size_t vb = 0; vb < n; vb += kTile) {
      const std::size_t ve = std::min(n, vb + kTile);
      for (std::size_t wb = 0; wb < n; wb += kTile) {
        const std::size_t we = std::min(n, wb + kTile);
        for (std::size_t v = vb; v < ve; ++v) {
          const double* row_sv = f + snd[v] * m;
          const double* row_rv = f + rcv[v] * m;
          for (std::size_t w = wb; w < we; ++w) {
            min_pair[v * n + w] =
                w == v ? 0.0
                       : std::min(std::min(cross[v * n + w], cross[w * n + v]),
                                  std::min(row_sv[snd[w]], row_rv[rcv[w]]));
          }
        }
      }
    }
  }
  PlaneBuildCounter().Add();
  PlaneEntryCounter().Add(static_cast<long long>(2 * n * n));
}

LinkSystem::LinkSystem(const core::DecaySpace& space, std::vector<Link> links,
                       SinrConfig config,
                       std::shared_ptr<const LinkPlanes> planes)
    : space_(&space),
      links_(std::move(links)),
      config_(config),
      planes_(std::move(planes)) {
  DL_CHECK(config_.beta >= 1.0, "the thresholding model assumes beta >= 1");
  DL_CHECK(config_.noise >= 0.0, "noise must be non-negative");
  for (const Link& l : links_) {
    DL_CHECK(l.sender >= 0 && l.sender < space.size() && l.receiver >= 0 &&
                 l.receiver < space.size(),
             "link endpoint out of range");
    DL_CHECK(l.sender != l.receiver, "sender and receiver must differ");
  }
  DL_CHECK(planes_ == nullptr || planes_->n == NumLinks(),
           "link planes must cover exactly the system's links");
}

double LinkSystem::LinkDecay(int v) const {
  const Link& l = links_[static_cast<std::size_t>(v)];
  return space_->Entry(l.sender, l.receiver);
}

double LinkSystem::CrossDecay(int w, int v) const {
  return (*space_)(links_[static_cast<std::size_t>(w)].sender,
                   links_[static_cast<std::size_t>(v)].receiver);
}

bool LinkSystem::CanOvercomeNoise(int v, const PowerAssignment& power) const {
  return NoiseFactorOrZero(power[static_cast<std::size_t>(v)], LinkDecay(v),
                           config_) > 0.0;
}

double LinkSystem::NoiseFactor(int v, const PowerAssignment& power) const {
  const double cv =
      NoiseFactorOrZero(power[static_cast<std::size_t>(v)], LinkDecay(v),
                        config_);
  DL_CHECK(cv > 0.0, "link cannot meet the SINR threshold even alone");
  return cv;
}

bool LinkSystem::IsFeasible(std::span<const int> S,
                            const PowerAssignment& power) const {
  for (int v : S) {
    const double pv = power[static_cast<std::size_t>(v)];
    const double cv = NoiseFactorOrZero(pv, LinkDecay(v), config_);
    if (cv == 0.0) return false;  // v cannot overcome noise
    double total = 0.0;
    for (int w : S) {
      if (w == v) continue;
      total += cv * (power[static_cast<std::size_t>(w)] / pv * LinkDecay(v) /
                     CrossDecay(w, v));
    }
    if (total > 1.0) return false;
  }
  return true;
}

std::vector<int> LinkSystem::OrderByDecay() const {
  return DecayOrder(*this, AllLinks(*this));
}

std::vector<Link> LinksFromPairs(std::span<const std::pair<int, int>> pairs) {
  std::vector<Link> links;
  links.reserve(pairs.size());
  for (const auto& [s, r] : pairs) links.push_back({s, r});
  return links;
}

}  // namespace decaylib::sinr
