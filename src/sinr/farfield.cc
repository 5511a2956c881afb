#include "sinr/farfield.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/check.h"
#include "obs/registry.h"

namespace decaylib::sinr {

namespace {

// Registry handles resolved once (static locals), same pattern as kernel.cc.
// Metric name catalogue: docs/observability.md.
obs::Counter& FarFieldBuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_builds");
  return counter;
}

obs::Counter& FarFieldAdmissionCheckCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_admission_checks");
  return counter;
}

obs::Counter& FarFieldCertifiedAcceptCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_certified_accepts");
  return counter;
}

obs::Counter& FarFieldCertifiedRejectCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_certified_rejects");
  return counter;
}

obs::Counter& FarFieldExactFallbackCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_exact_fallbacks");
  return counter;
}

obs::Counter& FarFieldClampRejectCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_clamp_rejects");
  return counter;
}

obs::Counter& FarFieldCellsVisitedCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_cells_visited");
  return counter;
}

obs::Counter& FarFieldRefinedCellCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.farfield_refined_cells");
  return counter;
}

geom::UniformGrid MakeGrid(std::span<const geom::Vec2> pts, int target) {
  std::vector<int> ids(pts.size());
  std::iota(ids.begin(), ids.end(), 0);
  return geom::UniformGrid(pts, ids, target);
}

std::vector<geom::Vec2> GatherEndpoints(std::span<const geom::Vec2> points,
                                        std::span<const Link> links,
                                        bool sender_side) {
  std::vector<geom::Vec2> out(links.size());
  for (std::size_t v = 0; v < links.size(); ++v) {
    const int node = sender_side ? links[v].sender : links[v].receiver;
    out[v] = points[static_cast<std::size_t>(node)];
  }
  return out;
}

// The dense SeparationOracle's guard band, replicated literal-for-literal
// so knife-edge separation decisions use identical thresholds.
constexpr double kSepBand = 1e-9;

}  // namespace

// --- FarFieldKernel ----------------------------------------------------------

FarFieldKernel::FarFieldKernel(std::span<const geom::Vec2> points,
                               std::span<const Link> links, double alpha,
                               SinrConfig config, PowerAssignment power,
                               FarFieldConfig farfield)
    : FarFieldKernel(GatherEndpoints(points, links, true),
                     GatherEndpoints(points, links, false), alpha, config,
                     std::move(power), farfield) {}

FarFieldKernel::FarFieldKernel(std::vector<geom::Vec2> senders,
                               std::vector<geom::Vec2> receivers, double alpha,
                               SinrConfig config, PowerAssignment power,
                               FarFieldConfig farfield)
    : n_(static_cast<int>(senders.size())),
      alpha_(alpha),
      config_(config),
      power_(std::move(power)),
      senders_(std::move(senders)),
      receivers_(std::move(receivers)) {
  Init(farfield);
}

void FarFieldKernel::Init(FarFieldConfig farfield) {
  DL_CHECK(senders_.size() == receivers_.size(),
           "one sender and one receiver per link");
  DL_CHECK(n_ >= 1, "far-field kernel needs at least one link");
  DL_CHECK(alpha_ > 0.0, "path loss exponent must be positive");
  DL_CHECK(std::isfinite(farfield.epsilon) && farfield.epsilon >= 0.0,
           "far-field epsilon must be finite and >= 0");
  DL_CHECK(static_cast<int>(power_.size()) == n_, "one power entry per link");
  epsilon_ = farfield.epsilon;
  alpha_int_ = (alpha_ == std::rint(alpha_) && alpha_ >= 1.0 && alpha_ <= 16.0)
                   ? static_cast<int>(alpha_)
                   : 0;
  FarFieldBuildCounter().Add();

  const std::size_t n = static_cast<std::size_t>(n_);
  const double beta = config_.beta;
  const double noise = config_.noise;
  uniform_power_ = true;
  for (std::size_t v = 1; v < n; ++v) {
    if (power_[v] != power_[0]) {
      uniform_power_ = false;
      break;
    }
  }

  link_decay_.resize(n);
  can_overcome_.resize(n);
  noise_factor_.assign(n, 0.0);
  cf_.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    // Same expressions as KernelCache::Build, with the decay read from
    // geometry through the shared GeometricDecay helper instead of the
    // materialised space -- bit-identical over the same points.
    link_decay_[v] = geom::GeometricDecay(senders_[v], receivers_[v], alpha_);
    DL_CHECK(link_decay_[v] > 0.0, "coincident link endpoints");
    const double signal = power_[v] / link_decay_[v];
    can_overcome_[v] = signal > beta * noise ? 1 : 0;
    if (can_overcome_[v]) {
      noise_factor_[v] = beta / (1.0 - beta * noise / signal);
      cf_[v] = noise_factor_[v] * link_decay_[v];
    }
  }

  // Exact near ring radius R0 = diag / (2^{1/alpha} - 1): beyond it,
  // d_hi <= d_lo + diag <= d_lo * 2^{1/alpha}, so a pooled leaf's
  // upper/lower contribution ratio (d_hi/d_lo)^alpha is at most 2 and
  // refinement halves the residual width geometrically.
  const double ring =
      std::sqrt(2.0) / (std::pow(2.0, 1.0 / alpha_) - 1.0);
  const geom::UniformGrid sender_grid =
      MakeGrid(senders_, farfield.target_per_cell);
  const geom::UniformGrid receiver_grid =
      MakeGrid(receivers_, farfield.target_per_cell);
  senders_py_ =
      BuildPyramid(sender_grid, senders_, sender_grid.CellSize() * ring);
  receivers_py_ =
      BuildPyramid(receiver_grid, receivers_, receiver_grid.CellSize() * ring);
}

FarFieldKernel::Pyramid FarFieldKernel::BuildPyramid(
    const geom::UniformGrid& grid, std::span<const geom::Vec2> pts,
    double near) {
  Pyramid py;
  py.near = near;
  py.leaf_of.assign(pts.size(), -1);
  // Level 0: the occupied cells in row-major order, with their grid
  // coordinates for the merge below.
  std::vector<int> cx;
  std::vector<int> cy;
  const int num = grid.NumCells();
  for (int c = 0; c < num; ++c) {
    const std::span<const int> ids = grid.CellContents(c);
    if (ids.empty()) continue;
    Node leaf;
    const geom::Vec2 p0 = pts[static_cast<std::size_t>(ids[0])];
    leaf.min_x = leaf.max_x = p0.x;
    leaf.min_y = leaf.max_y = p0.y;
    const int index = static_cast<int>(py.nodes.size());
    for (const int id : ids) {
      const geom::Vec2 p = pts[static_cast<std::size_t>(id)];
      leaf.min_x = std::min(leaf.min_x, p.x);
      leaf.min_y = std::min(leaf.min_y, p.y);
      leaf.max_x = std::max(leaf.max_x, p.x);
      leaf.max_y = std::max(leaf.max_y, p.y);
      py.leaf_of[static_cast<std::size_t>(id)] = index;
    }
    py.nodes.push_back(leaf);
    cx.push_back(c % grid.Cols());
    cy.push_back(c / grid.Cols());
  }
  py.leaves = static_cast<int>(py.nodes.size());

  // Each level above merges the 2 x 2 blocks of the one below; parents are
  // laid out in row-major block order, each with a contiguous run of
  // `children`.
  int cols = grid.Cols();
  int rows = grid.Rows();
  int begin = 0;
  int end = py.leaves;
  while (end - begin > 1) {
    const int pcols = (cols + 1) / 2;
    const int prows = (rows + 1) / 2;
    std::vector<int> block_size(static_cast<std::size_t>(pcols * prows), 0);
    std::vector<int> block(static_cast<std::size_t>(end - begin));
    for (int i = begin; i < end; ++i) {
      const std::size_t k = static_cast<std::size_t>(i - begin);
      block[k] = (cy[k] / 2) * pcols + cx[k] / 2;
      ++block_size[static_cast<std::size_t>(block[k])];
    }
    std::vector<int> parent_of(block_size.size(), -1);
    std::vector<int> next_cx;
    std::vector<int> next_cy;
    for (int b = 0; b < pcols * prows; ++b) {
      const std::size_t sb = static_cast<std::size_t>(b);
      if (block_size[sb] == 0) continue;
      parent_of[sb] = static_cast<int>(py.nodes.size());
      Node parent;
      parent.first = static_cast<int>(py.children.size());
      py.nodes.push_back(parent);
      py.children.resize(py.children.size() +
                         static_cast<std::size_t>(block_size[sb]));
      next_cx.push_back(b % pcols);
      next_cy.push_back(b / pcols);
    }
    for (int i = begin; i < end; ++i) {
      const Node child = py.nodes[static_cast<std::size_t>(i)];
      const int b = block[static_cast<std::size_t>(i - begin)];
      Node& parent = py.nodes[static_cast<std::size_t>(
          parent_of[static_cast<std::size_t>(b)])];
      if (parent.count == 0) {
        parent.min_x = child.min_x;
        parent.min_y = child.min_y;
        parent.max_x = child.max_x;
        parent.max_y = child.max_y;
      } else {
        parent.min_x = std::min(parent.min_x, child.min_x);
        parent.min_y = std::min(parent.min_y, child.min_y);
        parent.max_x = std::max(parent.max_x, child.max_x);
        parent.max_y = std::max(parent.max_y, child.max_y);
      }
      py.children[static_cast<std::size_t>(parent.first + parent.count++)] = i;
    }
    begin = end;
    end = static_cast<int>(py.nodes.size());
    cx.swap(next_cx);
    cy.swap(next_cy);
    cols = pcols;
    rows = prows;
  }
  py.parent.assign(py.nodes.size(), -1);
  for (int i = py.leaves; i < static_cast<int>(py.nodes.size()); ++i) {
    for (const int child : py.Children(i)) {
      py.parent[static_cast<std::size_t>(child)] = i;
    }
  }
  return py;
}

long long FarFieldKernel::Pyramid::MemoryBytes() const noexcept {
  auto bytes = [](const auto& v) {
    return static_cast<long long>(v.capacity() * sizeof(v[0]));
  };
  return bytes(nodes) + bytes(children) + bytes(parent) + bytes(leaf_of);
}

void FarFieldKernel::BoxDistance(const Node& c, geom::Vec2 p, double* lo,
                                 double* hi) {
  // sqrt of the squared sum, not hypot: this feeds bound arithmetic only
  // (kGuard absorbs the ulp-level difference) and hypot's overflow-safe
  // scaling is several times slower on the admission hot loop.
  const double dx_lo = std::max({0.0, c.min_x - p.x, p.x - c.max_x});
  const double dy_lo = std::max({0.0, c.min_y - p.y, p.y - c.max_y});
  *lo = std::sqrt(dx_lo * dx_lo + dy_lo * dy_lo);
  const double dx_hi = std::max(p.x - c.min_x, c.max_x - p.x);
  const double dy_hi = std::max(p.y - c.min_y, c.max_y - p.y);
  *hi = std::sqrt(dx_hi * dx_hi + dy_hi * dy_hi);
}

double FarFieldKernel::BoxDistanceSqLower(const Node& c, geom::Vec2 p) {
  const double dx = std::max({0.0, c.min_x - p.x, p.x - c.max_x});
  const double dy = std::max({0.0, c.min_y - p.y, p.y - c.max_y});
  return dx * dx + dy * dy;
}

double FarFieldKernel::AffectanceExact(int w, int v) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  if (w == v || !can_overcome_[sv]) return 0.0;
  const std::size_t sw = static_cast<std::size_t>(w);
  // The dense matrix entry's expression: cross = the space's f(s_w, r_v)
  // (GeometricDecay is the one shared spelling), then the KernelCache
  // association order with the uniform-power ratio elision.
  const double cross =
      geom::GeometricDecay(senders_[sw], receivers_[sv], alpha_);
  if (uniform_power_) {
    return noise_factor_[sv] * (link_decay_[sv] / cross);
  }
  return noise_factor_[sv] *
         (power_[sw] / power_[sv] * link_decay_[sv] / cross);
}

double FarFieldKernel::InAffectanceRawExact(std::span<const int> S,
                                            int v) const {
  // Same fold as the dense IsKFeasible row pass: entries at w == v are 0.
  double total = 0.0;
  for (int w : S) total += AffectanceExact(w, v);
  return total;
}

FarFieldKernel::SenderGroups FarFieldKernel::GroupBySenderCell(
    std::span<const int> S) const {
  const std::size_t num_cells =
      static_cast<std::size_t>(senders_py_.leaves);
  SenderGroups g;
  g.offset.assign(num_cells + 1, 0);
  for (int w : S) {
    ++g.offset[static_cast<std::size_t>(
                   senders_py_.leaf_of[static_cast<std::size_t>(w)]) +
               1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (g.offset[c + 1] > 0) g.cells.push_back(static_cast<int>(c));
    g.offset[c + 1] += g.offset[c];
  }
  g.ids.resize(S.size());
  std::vector<int> cursor(g.offset.begin(), g.offset.end() - 1);
  for (int w : S) {
    const std::size_t c =
        static_cast<std::size_t>(senders_py_.leaf_of[static_cast<std::size_t>(w)]);
    g.ids[static_cast<std::size_t>(cursor[c]++)] = w;
  }
  return g;
}

template <class Done>
FarFieldKernel::Interval FarFieldKernel::RefineInAffectance(
    const SenderGroups& groups, int v, Done done,
    std::vector<PooledCell>* far) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  const geom::Vec2 p = receivers_[sv];
  const double k = cf_[sv];
  const int own = senders_py_.leaf_of[sv];
  // Near + refined cells, summed pairwise through the cheap bound spelling
  // (AffectanceNear): the sum only feeds the guarded certified interval,
  // and undecided callers re-fold with the exact path anyway.
  const auto pairwise = [&](int c) {
    double sum = 0.0;
    for (int i = groups.offset[static_cast<std::size_t>(c)];
         i < groups.offset[static_cast<std::size_t>(c) + 1]; ++i) {
      sum += AffectanceNear(groups.ids[static_cast<std::size_t>(i)], v);
    }
    return sum;
  };
  double near_sum = 0.0;
  far->clear();
  for (int c : groups.cells) {
    double lo = 0.0;
    double hi = 0.0;
    BoxDistance(senders_py_.nodes[static_cast<std::size_t>(c)], p, &lo, &hi);
    // v's own sender cell is never pooled: its entries equal to v must
    // contribute 0, as in the dense row, and AffectanceNear says so.
    if (lo <= senders_py_.near || c == own) {
      near_sum += pairwise(c);
      continue;
    }
    const double cnt =
        static_cast<double>(groups.offset[static_cast<std::size_t>(c) + 1] -
                            groups.offset[static_cast<std::size_t>(c)]);
    far->push_back({c, cnt * (k / BoundPow(hi)), cnt * (k / BoundPow(lo))});
  }

  // Adaptive refinement: convert the widest pooled cell to pairwise terms
  // until the caller's stop condition holds.  Totals are resummed per
  // round so the bounds never inherit subtraction cancellation.
  Interval out;
  for (;;) {
    double far_lo = 0.0;
    double far_hi = 0.0;
    for (const PooledCell& f : *far) {
      far_lo += f.lo;
      far_hi += f.hi;
    }
    out.lower = (near_sum + far_lo) * (1.0 - kGuard);
    out.upper = (near_sum + far_hi) * (1.0 + kGuard);
    if (far->empty() || done(out)) break;
    std::size_t widest = 0;
    for (std::size_t i = 1; i < far->size(); ++i) {
      if ((*far)[i].hi - (*far)[i].lo >
          (*far)[widest].hi - (*far)[widest].lo) {
        widest = i;
      }
    }
    near_sum += pairwise((*far)[widest].cell);
    (*far)[widest] = far->back();
    far->pop_back();
    FarFieldRefinedCellCounter().Add();
  }
  return out;
}

FarFieldKernel::Interval FarFieldKernel::CertifiedInAffectance(
    std::span<const int> S, int v) const {
  const std::size_t sv = static_cast<std::size_t>(v);
  if (!can_overcome_[sv]) return {0.0, 0.0};
  if (!uniform_power_ || epsilon_ == 0.0) {
    const double e = InAffectanceRawExact(S, v);
    return {e, e};
  }
  const auto narrow_enough = [&](const Interval& b) {
    return b.upper - b.lower <= epsilon_ * b.lower;
  };
  std::vector<PooledCell> far;
  return RefineInAffectance(GroupBySenderCell(S), v, narrow_enough, &far);
}

bool FarFieldKernel::IsFeasibleCertified(std::span<const int> S) const {
  const bool pooled = epsilon_ > 0.0 && uniform_power_;
  SenderGroups groups;
  std::vector<PooledCell> far;
  if (pooled) groups = GroupBySenderCell(S);
  // Refine only while the interval straddles the decision band: no width
  // beyond that changes the decision.
  const auto decided = [](const Interval& b) {
    return b.upper <= 1.0 - kBand || b.lower > 1.0 + kBand;
  };
  for (int v : S) {
    if (!CanOvercomeNoise(v)) return false;
    if (pooled) {
      const Interval b = RefineInAffectance(groups, v, decided, &far);
      if (b.upper <= 1.0 - kBand) {
        FarFieldCertifiedAcceptCounter().Add();
        continue;
      }
      if (b.lower > 1.0 + kBand) {
        FarFieldCertifiedRejectCounter().Add();
        return false;
      }
      FarFieldExactFallbackCounter().Add();
    }
    if (InAffectanceRawExact(S, v) > 1.0) return false;
  }
  return true;
}

long long FarFieldKernel::MemoryBytes() const noexcept {
  auto bytes = [](const auto& v) {
    return static_cast<long long>(v.capacity() * sizeof(v[0]));
  };
  return bytes(senders_) + bytes(receivers_) + bytes(link_decay_) +
         bytes(can_overcome_) + bytes(noise_factor_) + bytes(cf_) +
         senders_py_.MemoryBytes() + receivers_py_.MemoryBytes();
}

// --- FarFieldAccumulator -----------------------------------------------------

FarFieldAccumulator::FarFieldAccumulator(const FarFieldKernel& kernel)
    : kernel_(&kernel) {
  const std::size_t n = static_cast<std::size_t>(kernel.NumLinks());
  in_set_.assign(n, 0);
  in_m_.assign(n, 0.0);
  in_raw_m_.assign(n, 0.0);
  upto_.assign(n, 0);
  const FarFieldKernel::Pyramid& spy = kernel.senders_py_;
  const FarFieldKernel::Pyramid& rpy = kernel.receivers_py_;
  sleaf_members_.resize(static_cast<std::size_t>(spy.leaves));
  rleaf_members_.resize(static_cast<std::size_t>(rpy.leaves));
  snode_count_.assign(spy.nodes.size(), 0);
  rnode_count_.assign(rpy.nodes.size(), 0);
  rnode_cf_sum_.assign(rpy.nodes.size(), 0.0);
  rnode_cf_max_.assign(rpy.nodes.size(), 0.0);
  sep_mark_.assign(n, 0);
}

void FarFieldAccumulator::Add(int v) {
  DL_CHECK(!Contains(v), "link already in the accumulator");
  const FarFieldKernel& k = *kernel_;
  const std::size_t sv = static_cast<std::size_t>(v);
  if (Pooling()) {
    // Lazily-exact sums: the new member starts with an empty fold prefix
    // (CatchUp replays the dense accumulator's additions on demand), and
    // the existing members' exact folds are simply left behind.
    in_raw_m_[sv] = 0.0;
    in_m_[sv] = 0.0;
    upto_[sv] = 0;
  } else {
    // Fold the new member's in-sums over the existing members in insertion
    // order, and push its pressure onto each existing member's running
    // sums -- the same association order the dense accumulator produces
    // (the dense version also adds the member's own +0.0 entry, which
    // cannot change an IEEE sum of non-negative terms).
    double in_raw = 0.0;
    double in = 0.0;
    for (int w : members_) {
      const std::size_t sw = static_cast<std::size_t>(w);
      const double aw_v = k.AffectanceExact(w, v);  // w's pressure on v
      const double av_w = k.AffectanceExact(v, w);  // v's pressure on w
      in_raw += aw_v;
      in += aw_v < 1.0 ? aw_v : 1.0;
      in_raw_m_[sw] += av_w;
      in_m_[sw] += av_w < 1.0 ? av_w : 1.0;
    }
    in_raw_m_[sv] = in_raw;
    in_m_[sv] = in;
  }
  members_.push_back(v);
  in_set_[sv] = 1;

  // Membership along both leaves' ancestor chains.
  const FarFieldKernel::Pyramid& spy = k.senders_py_;
  const FarFieldKernel::Pyramid& rpy = k.receivers_py_;
  const int sleaf = spy.leaf_of[sv];
  sleaf_members_[static_cast<std::size_t>(sleaf)].push_back(v);
  for (int node = sleaf; node >= 0;
       node = spy.parent[static_cast<std::size_t>(node)]) {
    ++snode_count_[static_cast<std::size_t>(node)];
  }
  const int rleaf = rpy.leaf_of[sv];
  rleaf_members_[static_cast<std::size_t>(rleaf)].push_back(v);
  const double cf = k.cf_[sv];
  for (int node = rleaf; node >= 0;
       node = rpy.parent[static_cast<std::size_t>(node)]) {
    const std::size_t sn = static_cast<std::size_t>(node);
    ++rnode_count_[sn];
    rnode_cf_sum_[sn] += cf;
    if (cf > rnode_cf_max_[sn]) rnode_cf_max_[sn] = cf;
  }
}

void FarFieldAccumulator::CatchUp(int w) const {
  if (!Pooling()) return;  // eager modes
  const FarFieldKernel& k = *kernel_;
  const std::size_t sw = static_cast<std::size_t>(w);
  const std::size_t end = members_.size();
  if (static_cast<std::size_t>(upto_[sw]) == end) return;
  // Replay the additions the dense accumulator would have performed
  // eagerly, in the same order: members before w (its own construction
  // fold), then members after w (their Add-time pushes).  members_ holds
  // exactly that sequence, and w's own entry contributes a +0.0 that
  // cannot change an IEEE sum of non-negative terms.
  for (std::size_t j = static_cast<std::size_t>(upto_[sw]); j < end; ++j) {
    const double au_w = k.AffectanceExact(members_[j], w);
    in_raw_m_[sw] += au_w;
    in_m_[sw] += au_w < 1.0 ? au_w : 1.0;
  }
  upto_[sw] = static_cast<int>(end);
}

bool FarFieldAccumulator::InWithinOne(int v) const {
  DL_CHECK(Contains(v), "far-field sums are member-only");
  const std::size_t sv = static_cast<std::size_t>(v);
  if (Pooling()) {
    // Clamped sum <= raw sum <= upper: v's raw in-sum interval certifies
    // acceptance only (a raw sum above 1 may still clamp to at most 1).
    constexpr Term kTerms[] = {Term::kInRaw};
    const FarFieldKernel::Interval b =
        CandidateBounds(v, kTerms, [](const FarFieldKernel::Interval& i) {
          return i.upper <= 1.0 - FarFieldKernel::kBand;
        });
    if (b.upper <= 1.0 - FarFieldKernel::kBand) {
      FarFieldCertifiedAcceptCounter().Add();
      return true;
    }
    FarFieldExactFallbackCounter().Add();
  }
  CatchUp(v);
  return in_m_[sv] <= 1.0;
}

// --- FarFieldFeasibilityAccumulator --------------------------------------

FarFieldFeasibilityAccumulator::FarFieldFeasibilityAccumulator(
    const FarFieldKernel& kernel)
    : FarFieldAccumulator(kernel) {
  const std::size_t n = static_cast<std::size_t>(kernel.NumLinks());
  in_lo_.assign(n, 0.0);
  in_hi_.assign(n, 0.0);
}

void FarFieldFeasibilityAccumulator::Add(int v) {
  const bool pooled = Pooling();
  if (pooled) {
    const FarFieldKernel& k = *kernel_;
    const std::size_t sv = static_cast<std::size_t>(v);
    // The new member's bracket, opened until its width is at most the
    // headroom it certifies (1 - upper): the true headroom then lies
    // within 2x of the certified one, the slack RefreshHeadroom already
    // gives away by certifying the pass side at half the headroom.  A sum
    // too close to 1 for that opens down to the leaves.
    constexpr Term kTerms[] = {Term::kInRaw};
    const FarFieldKernel::Interval b =
        CandidateBounds(v, kTerms, [](const FarFieldKernel::Interval& i) {
          return i.upper - i.lower <= 1.0 - i.upper;
        });
    in_lo_[sv] = b.lower;
    in_hi_[sv] = b.upper;
    // v's pressure onto every member's bracket, leaf by leaf of the
    // receiver pyramid: pairwise within the near ring, one pooled distance
    // range per leaf beyond it.
    constexpr double g = FarFieldKernel::kGuard;
    const FarFieldKernel::Pyramid& rpy = k.receivers_py_;
    const geom::Vec2 s = k.senders_[sv];
    stack_.assign(1, rpy.Root());
    while (!stack_.empty()) {
      const int node = stack_.back();
      stack_.pop_back();
      const std::size_t sn = static_cast<std::size_t>(node);
      if (rnode_count_[sn] == 0) continue;
      if (!rpy.IsLeaf(node)) {
        const std::span<const int> children = rpy.Children(node);
        stack_.insert(stack_.end(), children.begin(), children.end());
        continue;
      }
      const auto& mem = rleaf_members_[sn];
      double lo = 0.0;
      double hi = 0.0;
      FarFieldKernel::BoxDistance(rpy.nodes[sn], s, &lo, &hi);
      if (lo <= rpy.near) {
        for (int w : mem) {
          const std::size_t sw = static_cast<std::size_t>(w);
          const double a = k.AffectanceNear(v, w);
          in_lo_[sw] += a * (1.0 - g);
          in_hi_[sw] += a * (1.0 + g);
        }
        continue;
      }
      const double inv_lo = 1.0 / k.BoundPow(hi);
      const double inv_hi = 1.0 / k.BoundPow(lo);
      for (int w : mem) {
        const std::size_t sw = static_cast<std::size_t>(w);
        const double cf = k.cf_[sw];
        in_lo_[sw] += cf * inv_lo * (1.0 - g);
        in_hi_[sw] += cf * inv_hi * (1.0 + g);
      }
    }
  }
  FarFieldAccumulator::Add(v);
  if (pooled) {
    t2_pass_.push_back(0.0);
    t2_fail_.push_back(0.0);
    pass_limit_.push_back(0.0);
    RefreshHeadroom(members_.size() - 1);
  }
}

bool FarFieldAccumulator::Open(Term term, int node, int v,
                               double* near) const {
  const FarFieldKernel& k = *kernel_;
  const bool out = term == Term::kOutClamped;
  const FarFieldKernel::Pyramid& py = out ? k.receivers_py_ : k.senders_py_;
  const std::size_t sn = static_cast<std::size_t>(node);
  const int members = out ? rnode_count_[sn] : snode_count_[sn];
  if (members == 0) return true;
  ++visited_;
  const std::size_t sv = static_cast<std::size_t>(v);
  double lo = 0.0;
  double hi = 0.0;
  FarFieldKernel::BoxDistance(py.nodes[sn], out ? k.senders_[sv] : k.receivers_[sv],
                              &lo, &hi);
  const bool leaf = py.IsLeaf(node);
  // A member's own sender leaf always runs pairwise, where its self-term is
  // 0 as in the dense row (pooled, the leaf would count it).
  if (leaf && (lo <= py.near ||
               (!out && in_set_[sv] && node == k.senders_py_.leaf_of[sv]))) {
    // The cheap bound spelling; in-band callers re-fold exact.
    double sum = 0.0;
    if (term == Term::kInRaw) {
      for (int w : sleaf_members_[sn]) sum += k.AffectanceNear(w, v);
    } else if (term == Term::kInClamped) {
      for (int w : sleaf_members_[sn]) {
        const double a = k.AffectanceNear(w, v);
        sum += a < 1.0 ? a : 1.0;
      }
    } else {
      for (int w : rleaf_members_[sn]) {
        const double a = k.AffectanceNear(v, w);
        sum += a < 1.0 ? a : 1.0;
      }
    }
    *near += sum;
    return true;
  }
  const double cnt = static_cast<double>(members);
  Pooled pooled{node, term, leaf, 0.0, 0.0};
  if (term == Term::kOutClamped) {
    // A node pools only when the per-member *lower* ends cannot clamp
    // (cf_max / d_hi^alpha <= 1).  When they can, the member holding
    // cf_max takes pressure cf_max / d^alpha > 1 from v, clamped to exactly
    // 1, so a_v(X) >= 1 > 1/2 already decides the budget.
    const double inv_hi = 1.0 / k.BoundPow(hi);
    if (rnode_cf_max_[sn] * inv_hi > 1.0) return false;
    const double phi_sum = rnode_cf_sum_[sn] / k.BoundPow(lo);
    pooled.hi = phi_sum < cnt ? phi_sum : cnt;
    pooled.lo = rnode_cf_sum_[sn] * inv_hi;
  } else {
    const double kv = k.cf_[sv];
    const double phi = kv / k.BoundPow(lo);
    const double plo = kv / k.BoundPow(hi);
    if (term == Term::kInRaw) {
      pooled.hi = cnt * phi;
      pooled.lo = cnt * plo;
    } else {
      pooled.hi = cnt * (phi < 1.0 ? phi : 1.0);
      pooled.lo = cnt * (plo < 1.0 ? plo : 1.0);
    }
  }
  frontier_.push_back(pooled);
  return true;
}

FarFieldKernel::Interval FarFieldAccumulator::FrontierInterval(
    double near) const {
  double far_lo = 0.0;
  double far_hi = 0.0;
  for (const Pooled& f : frontier_) {
    far_lo += f.lo;
    far_hi += f.hi;
  }
  return {(near + far_lo) * (1.0 - FarFieldKernel::kGuard),
          (near + far_hi) * (1.0 + FarFieldKernel::kGuard)};
}

template <class Done>
FarFieldKernel::Interval FarFieldAccumulator::CandidateBounds(
    int v, std::span<const Term> terms, Done done) const {
  const FarFieldKernel& k = *kernel_;
  const bool silent = k.cf_[static_cast<std::size_t>(v)] == 0.0;
  frontier_.clear();
  visited_ = 0;
  double near = 0.0;
  bool clamped = false;
  for (const Term term : terms) {
    if (term != Term::kOutClamped && silent) continue;  // in-sums are 0
    const FarFieldKernel::Pyramid& py =
        term == Term::kOutClamped ? k.receivers_py_ : k.senders_py_;
    if (!Open(term, py.Root(), v, &near)) clamped = true;
  }
  FarFieldKernel::Interval b;
  while (!clamped) {
    // Totals are resummed per round so the bounds never inherit
    // subtraction cancellation.
    b = FrontierInterval(near);
    if (done(b)) break;
    std::size_t widest = frontier_.size();
    double width = -1.0;
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      const Pooled& f = frontier_[i];
      if (!f.leaf && f.hi - f.lo > width) {
        widest = i;
        width = f.hi - f.lo;
      }
    }
    if (widest == frontier_.size()) break;  // only leaves are pooled
    const Pooled open = frontier_[widest];
    frontier_[widest] = frontier_.back();
    frontier_.pop_back();
    const FarFieldKernel::Pyramid& py =
        open.term == Term::kOutClamped ? k.receivers_py_ : k.senders_py_;
    for (const int child : py.Children(open.node)) {
      if (!Open(open.term, child, v, &near)) {
        clamped = true;
        break;
      }
    }
  }
  FarFieldCellsVisitedCounter().Add(visited_);
  if (clamped) {
    FarFieldClampRejectCounter().Add();
    return {1.0 - FarFieldKernel::kGuard,
            std::numeric_limits<double>::infinity()};
  }
  return b;
}

double FarFieldAccumulator::ExactInRaw(int v) const {
  double total = 0.0;
  for (int w : members_) total += kernel_->AffectanceExact(w, v);
  return total;
}

double FarFieldAccumulator::ExactBudget(int v) const {
  // Out(v) + In(v) of the dense accumulator: two clamped folds in member
  // insertion order, then one add.
  const FarFieldKernel& k = *kernel_;
  double out = 0.0;
  for (int w : members_) {
    const double a = k.AffectanceExact(v, w);
    out += a < 1.0 ? a : 1.0;
  }
  double in = 0.0;
  for (int w : members_) {
    const double a = k.AffectanceExact(w, v);
    in += a < 1.0 ? a : 1.0;
  }
  return out + in;
}

bool FarFieldFeasibilityAccumulator::CanAddFeasibly(int v) const {
  FarFieldAdmissionCheckCounter().Add();
  DL_CHECK(!Contains(v), "candidate already in the accumulator");
  const FarFieldKernel& k = *kernel_;
  const bool pooled = Pooling();

  // (a) candidate's raw in-sum vs 1 (dense: InRaw(v) > 1.0).
  bool decided = false;
  if (pooled) {
    constexpr Term kTerms[] = {Term::kInRaw};
    const FarFieldKernel::Interval b =
        CandidateBounds(v, kTerms, [](const FarFieldKernel::Interval& i) {
          return i.lower > 1.0 + FarFieldKernel::kBand ||
                 i.upper <= 1.0 - FarFieldKernel::kBand;
        });
    if (b.lower > 1.0 + FarFieldKernel::kBand) {
      FarFieldCertifiedRejectCounter().Add();
      return false;
    }
    if (b.upper <= 1.0 - FarFieldKernel::kBand) {
      FarFieldCertifiedAcceptCounter().Add();
      decided = true;
    } else {
      FarFieldExactFallbackCounter().Add();
    }
  }
  if (!decided && ExactInRaw(v) > 1.0) return false;

  // (b) every member's headroom vs the candidate's pressure (dense:
  // InRaw(w) + AffectanceRaw(v, w) > 1.0).  The pooled path certifies each
  // member through its precomputed d^2 thresholds -- pow-free unless the
  // pressure lands inside the 1e-9 band of the member's headroom.
  if (pooled) {
    const geom::Vec2 s = k.senders_[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const int w = members_[i];
      const geom::Vec2 r = k.receivers_[static_cast<std::size_t>(w)];
      const double d2 = (s - r).NormSq();
      const std::size_t sw = static_cast<std::size_t>(w);
      if (in_hi_[sw] > pass_limit_[i]) RefreshHeadroom(i);
      if (d2 > t2_pass_[i]) continue;
      if (d2 < t2_fail_[i]) return false;
      // Inside the certification band: the dense comparison, on the
      // caught-up exact fold.  The exact fold is the tightest certificate
      // there is, so the member's bracket collapses onto it (the decision
      // band absorbs fold-vs-real rounding) and its thresholds are
      // refreshed -- they may have been conservative from bracket slack.
      CatchUp(w);
      in_lo_[sw] = in_raw_m_[sw];
      in_hi_[sw] = in_raw_m_[sw];
      if (in_raw_m_[sw] + k.AffectanceExact(v, w) > 1.0) {
        return false;
      }
      RefreshHeadroom(i);
    }
  } else {
    for (int w : members_) {
      if (in_raw_m_[static_cast<std::size_t>(w)] + k.AffectanceExact(v, w) >
          1.0) {
        return false;
      }
    }
  }
  return true;
}

void FarFieldFeasibilityAccumulator::RefreshHeadroom(std::size_t i) const {
  // Member w rejects a candidate at real pressure a > h and passes at
  // a < h for headroom h = 1 - InRaw(w); in the distance domain
  // a = cf_w / d^alpha, so d^2 thresholds certify each side outside an
  // absolute 1e-9 band around the threshold (absolute, not relative to h:
  // the dense fp fold's error scales with the ~1 magnitudes of the sums,
  // not with a tiny headroom).
  //
  // The thresholds are maintained lazily instead of rebuilt for every
  // member on every Add.  h only shrinks as members join, so a stale fail
  // threshold stays valid (it certifies a > h_old + band >= h + band).
  // The pass threshold is computed for the halved headroom h/2, which
  // keeps it valid until h actually halves; pass_limit_ records the
  // in-raw level where that happens and CanAddFeasibly refreshes past it.
  // Each refresh halves the certified headroom, so a member is refreshed
  // O(log(h_0 / band)) times over a run instead of once per Add.
  const FarFieldKernel& k = *kernel_;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double band = FarFieldKernel::kBand;
  const double g = FarFieldKernel::kGuard;
  const double inv = 2.0 / k.alpha_;
  const std::size_t sw = static_cast<std::size_t>(members_[i]);
  // Headroom from the certified brackets, not the (possibly stale) exact
  // fold: h_pass underestimates it (safe for pass certificates), h_fail
  // overestimates it (safe for fail certificates).  A CatchUp collapses
  // the brackets and the next refresh recovers the full precision.
  const double h_pass = 1.0 - in_hi_[sw];
  const double h_fail = 1.0 - in_lo_[sw];
  const double cf = k.cf_[sw];
  t2_fail_[i] = h_fail + band > 0.0
                    ? std::pow(cf / (h_fail + band), inv) * (1.0 - g)
                    : kInf;
  const double h_half = 0.5 * h_pass;
  if (h_half > band) {
    t2_pass_[i] = std::pow(cf / (h_half - band), inv) * (1.0 + g);
    pass_limit_[i] = 1.0 - h_half;
  } else if (h_pass > band) {
    // Too little headroom to halve: certify at the current level; any
    // further in-raw growth triggers another refresh (h <= 2*band, so
    // this branch drains within a few adds).
    t2_pass_[i] = std::pow(cf / (h_pass - band), inv) * (1.0 + g);
    pass_limit_[i] = in_hi_[sw];
  } else {
    // No certifiable pass side at the bracket's upper end.  Final unless
    // a CatchUp tightens the bracket back above the band (the in-band
    // exact path refreshes after catching up).
    t2_pass_[i] = kInf;
    pass_limit_[i] = kInf;
  }
}

bool FarFieldAccumulator::BudgetWithinHalf(int v) const {
  if (Pooling()) {
    constexpr Term kTerms[] = {Term::kInClamped, Term::kOutClamped};
    const FarFieldKernel::Interval b =
        CandidateBounds(v, kTerms, [](const FarFieldKernel::Interval& i) {
          return i.lower > 0.5 + FarFieldKernel::kBand ||
                 i.upper <= 0.5 - FarFieldKernel::kBand;
        });
    if (b.upper <= 0.5 - FarFieldKernel::kBand) {
      FarFieldCertifiedAcceptCounter().Add();
      return true;
    }
    if (b.lower > 0.5 + FarFieldKernel::kBand) {
      FarFieldCertifiedRejectCounter().Add();
      return false;
    }
    FarFieldExactFallbackCounter().Add();
  }
  return ExactBudget(v) <= 0.5;
}

bool FarFieldAccumulator::IsSeparatedFromMembers(int v, double eta,
                                                 double zeta) const {
  const FarFieldKernel& k = *kernel_;
  const double inv_zeta = 1.0 / zeta;
  const double eta_pow = std::pow(eta, zeta);  // as SeparationOracle's ctor
  const double fvv = k.link_decay_[static_cast<std::size_t>(v)];
  const double thr = eta_pow * fvv;
  const double thr_lo = thr * (1.0 - kSepBand);
  const double thr_hi = thr * (1.0 + kSepBand);
  // d^2 certification radii with doubled bands: m = min d^alpha over the
  // four endpoint pairs, so every pair distance^2 above r2_hi certifies the
  // dense oracle's clearly-separated branch, and any pair below r2_lo its
  // clearly-too-close branch.
  const double r2_hi = std::pow(thr * (1.0 + 2.0 * kSepBand), 2.0 / k.alpha_) *
                       (1.0 + FarFieldKernel::kGuard);
  const double r2_lo = std::pow(thr * (1.0 - 2.0 * kSepBand), 2.0 / k.alpha_) *
                       (1.0 - FarFieldKernel::kGuard);
  const geom::Vec2 sv_pos = k.senders_[static_cast<std::size_t>(v)];
  const geom::Vec2 rv_pos = k.receivers_[static_cast<std::size_t>(v)];

  // Whole pyramid nodes beyond the certification radius from both of the
  // candidate's endpoints are separated wholesale; only members of nearer
  // leaves (by sender or receiver) run a per-member verdict.
  sep_scratch_.clear();
  visited_ = 0;
  const auto collect = [&](const FarFieldKernel::Pyramid& py,
                           const std::vector<int>& count,
                           const std::vector<std::vector<int>>& leaf_members) {
    stack_.assign(1, py.Root());
    while (!stack_.empty()) {
      const int node = stack_.back();
      stack_.pop_back();
      const std::size_t sn = static_cast<std::size_t>(node);
      if (count[sn] == 0) continue;
      ++visited_;
      const FarFieldKernel::Node& box = py.nodes[sn];
      if (FarFieldKernel::BoxDistanceSqLower(box, sv_pos) > r2_hi &&
          FarFieldKernel::BoxDistanceSqLower(box, rv_pos) > r2_hi) {
        continue;
      }
      if (!py.IsLeaf(node)) {
        const std::span<const int> children = py.Children(node);
        stack_.insert(stack_.end(), children.begin(), children.end());
        continue;
      }
      for (int w : leaf_members[sn]) {
        const std::size_t sw = static_cast<std::size_t>(w);
        if (!sep_mark_[sw]) {
          sep_mark_[sw] = 1;
          sep_scratch_.push_back(w);
        }
      }
    }
  };
  collect(k.senders_py_, snode_count_, sleaf_members_);
  collect(k.receivers_py_, rnode_count_, rleaf_members_);
  FarFieldCellsVisitedCounter().Add(visited_);

  bool separated = true;
  for (int w : sep_scratch_) {
    sep_mark_[static_cast<std::size_t>(w)] = 0;  // reset while draining
    if (!separated || w == v) continue;
    const geom::Vec2 sw_pos = k.senders_[static_cast<std::size_t>(w)];
    const geom::Vec2 rw_pos = k.receivers_[static_cast<std::size_t>(w)];
    const double m2 =
        std::min(std::min((sv_pos - rw_pos).NormSq(), (sw_pos - rv_pos).NormSq()),
                 std::min((sv_pos - sw_pos).NormSq(), (rv_pos - rw_pos).NormSq()));
    if (m2 > r2_hi) continue;
    if (m2 < r2_lo) {
      separated = false;
      continue;
    }
    // Inside the certification band: the dense oracle's exact expressions.
    // MinPairDecay's entries are the space's pow(distance, alpha) values,
    // min-nested exactly as KernelCache::Build stores them.
    const double sv_rw = geom::GeometricDecay(sv_pos, rw_pos, k.alpha_);
    const double sw_rv = geom::GeometricDecay(sw_pos, rv_pos, k.alpha_);
    const double sv_sw = geom::GeometricDecay(sv_pos, sw_pos, k.alpha_);
    const double rv_rw = geom::GeometricDecay(rv_pos, rw_pos, k.alpha_);
    const double m = std::min(std::min(sv_rw, sw_rv), std::min(sv_sw, rv_rw));
    if (m > thr_hi) continue;
    if (m < thr_lo) {
      separated = false;
      continue;
    }
    if (std::pow(m, inv_zeta) < eta * std::pow(fvv, inv_zeta)) {
      separated = false;
    }
  }
  return separated;
}

// --- all-links shorthands for the admission loops ------------------------

FarFieldAlg1Result FarFieldRunAlgorithm1(const FarFieldKernel& kernel,
                                         double zeta) {
  return HalfBudgetAdmission(kernel, DecayOrder(kernel, AllLinks(kernel)),
                             zeta);
}

std::vector<int> FarFieldGreedyFeasible(const FarFieldKernel& kernel) {
  return AdmitWhileFeasible(kernel, DecayOrder(kernel, AllLinks(kernel)));
}

FarFieldSchedule FarFieldScheduleLinks(const FarFieldKernel& kernel,
                                       double zeta) {
  return ScheduleByExtraction(
      kernel, AllLinks(kernel), [&](std::span<const int> remaining) {
        return HalfBudgetAdmission(kernel, DecayOrder(kernel, remaining), zeta)
            .selected;
      });
}

bool FarFieldValidateSchedule(const FarFieldKernel& kernel,
                              const FarFieldSchedule& schedule,
                              std::span<const int> candidates) {
  return ValidateSlots(kernel, schedule, candidates);
}

}  // namespace decaylib::sinr
