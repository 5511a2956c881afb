#include "sinr/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "obs/registry.h"

namespace decaylib::sinr {

namespace {

std::size_t Idx(int a, int b, int n) {
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(b);
}

// Registry handles for the kernel layer, resolved once (static locals) so
// the hot paths pay one enabled-flag branch per event, not a map lookup.
// Metric name catalogue: docs/observability.md.
obs::Counter& KernelBuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.kernel_builds");
  return counter;
}

obs::Counter& KernelEntryCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.kernel_entries");
  return counter;
}

obs::Counter& ArenaRebuildCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.arena_rebuilds");
  return counter;
}

obs::Counter& ArenaWarmSkipCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.arena_warm_skips");
  return counter;
}

obs::Counter& AdmissionCheckCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("sinr.admission_checks");
  return counter;
}

}  // namespace

KernelCache::KernelCache(const LinkSystem& system, PowerAssignment power) {
  Build(system, std::move(power));
}

void KernelCache::Build(const LinkSystem& system, PowerAssignment power) {
  KernelBuildCounter().Add();
  system_ = &system;
  power_ = std::move(power);
  n_ = system.NumLinks();
  DL_CHECK(static_cast<int>(power_.size()) == n_, "one power entry per link");
  const std::size_t n = static_cast<std::size_t>(n_);

  uniform_power_ = true;
  for (std::size_t v = 1; v < n; ++v) {
    if (power_[v] != power_[0]) {
      uniform_power_ = false;
      break;
    }
  }

  // Every container below is fully overwritten (assign, or resize followed
  // by a write to each entry), so rebuilding into a warm arena slot yields
  // the same bits as a fresh construction.
  link_decay_.resize(n);
  can_overcome_.resize(n);
  noise_factor_.resize(n);
  for (int v = 0; v < n_; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    link_decay_[sv] = system.LinkDecay(v);
    noise_factor_[sv] =
        NoiseFactorOrZero(power_[sv], link_decay_[sv], system.config());
    can_overcome_[sv] = noise_factor_[sv] > 0.0 ? 1 : 0;
  }

  // The link planes: the system's shared ones, else private ones built by
  // the same builder (reusing this slot's buffers unless a copy of the
  // cache still reads them).  Private planes are gathered from the matrix,
  // filling a lazy space first: kernels built again on the same system
  // then pay the O(n^2) pows once, in the fill, not once per build.
  const LinkPlanes* planes = system.planes();
  if (planes == nullptr) {
    if (own_planes_ == nullptr || own_planes_.use_count() > 1) {
      own_planes_ = std::make_shared<LinkPlanes>();
    }
    system.space().Materialize();
    BuildLinkPlanes(system.space(), system.links(), *own_planes_);
    planes = own_planes_.get();
  }
  DL_CHECK(planes->n == n_, "link planes must cover every link");
  cross_decay_ = planes->cross.data();
  min_pair_decay_ = planes->min_pair.data();

  // aff_raw_[w*n + v] = a_w(v) = c_v * (P_w / P_v * f_vv / f_wv), with c_v
  // and f_vv hoisted (tests/kernel_test.cc checks every entry against the
  // per-query reference).  Under uniform power the P_w / P_v factor equals
  // exactly 1.0 (IEEE x / x == 1.0), so the two extra ops can be skipped
  // without changing the rounded result.  Both n x n matrices write their
  // zero entries explicitly instead of pre-clearing with assign: on a warm
  // arena slab the resize is then a no-op, saving a memset pass per matrix
  // per rebuild (a fresh vector still zero-initialises).
  aff_raw_.resize(n * n);
  aff_raw_t_.resize(n * n);
  for (std::size_t w = 0; w < n; ++w) {
    const double* cross_w = cross_decay_ + w * n;
    double* out_aff = aff_raw_.data() + w * n;
    const double pw = power_[w];
    for (std::size_t v = 0; v < n; ++v) {
      if (v == w || !can_overcome_[v]) {
        out_aff[v] = 0.0;
      } else if (uniform_power_) {
        out_aff[v] = noise_factor_[v] * (link_decay_[v] / cross_w[v]);
      } else {
        out_aff[v] =
            noise_factor_[v] * (pw / power_[v] * link_decay_[v] / cross_w[v]);
      }
    }
  }

  // aff_raw_t_[v*n + w] = a_w(v): a blocked 32 x 32 transpose, copying the
  // entries' bits rather than re-deriving them.
  constexpr std::size_t kTile = 32;
  const double* aff = aff_raw_.data();
  double* aff_t = aff_raw_t_.data();
  for (std::size_t wb = 0; wb < n; wb += kTile) {
    const std::size_t we = std::min(n, wb + kTile);
    for (std::size_t vb = 0; vb < n; vb += kTile) {
      const std::size_t ve = std::min(n, vb + kTile);
      for (std::size_t w = wb; w < we; ++w) {
        for (std::size_t v = vb; v < ve; ++v) aff_t[v * n + w] = aff[w * n + v];
      }
    }
  }
  KernelEntryCounter().Add(static_cast<long long>(2 * n * n));
}

// --- KernelArena -------------------------------------------------------------

const KernelCache& KernelArena::Rebuild(const LinkSystem& system,
                                        PowerAssignment power) {
  // Warm iff the slot already holds matrices of this link count: every
  // resize inside Build is then a no-op and no allocation happens.
  const bool warm =
      slot_.system_ != nullptr && slot_.n_ == system.NumLinks();
  slot_.Build(system, std::move(power));
  ++rebuilds_;
  if (warm) ++warm_skips_;
  ArenaRebuildCounter().Add();
  if (warm) ArenaWarmSkipCounter().Add();
  return slot_;
}

double KernelCache::InAffectance(std::span<const int> S, int v) const {
  double total = 0.0;
  for (int w : S) total += Affectance(w, v);
  return total;
}

double KernelCache::OutAffectance(int v, std::span<const int> S) const {
  double total = 0.0;
  for (int w : S) total += Affectance(v, w);
  return total;
}

bool KernelCache::IsFeasible(std::span<const int> S) const {
  return IsKFeasible(S, 1.0);
}

bool KernelCache::IsKFeasible(std::span<const int> S, double K) const {
  const double budget = 1.0 / K;
  for (int v : S) {
    if (!CanOvercomeNoise(v)) return false;
    const double* row = AffectanceIntoRow(v).data();
    double total = 0.0;
    for (int w : S) total += row[static_cast<std::size_t>(w)];
    if (total > budget) return false;
  }
  return true;
}

double KernelCache::Sinr(int v, std::span<const int> S) const {
  // Signal over noise plus the interference of S in order, with the decay
  // lookups served from the cached arrays and cross plane.
  const double signal =
      power_[static_cast<std::size_t>(v)] / LinkDecay(v);
  double interference = system_->config().noise;
  for (int u : S) {
    if (u == v) continue;
    interference += power_[static_cast<std::size_t>(u)] / CrossDecay(u, v);
  }
  if (interference == 0.0) return std::numeric_limits<double>::infinity();
  return signal / interference;
}

double KernelCache::MaxInAffectance(std::span<const int> S) const {
  double worst = 0.0;
  for (int v : S) worst = std::max(worst, InAffectance(S, v));
  return worst;
}

double KernelCache::LinkLength(int v, double zeta) const {
  return std::pow(LinkDecay(v), 1.0 / zeta);
}

double KernelCache::LinkDistance(int v, int w, double zeta) const {
  // One pow of the min decay, where the naive path takes the min of four
  // pows: equal wherever pow(., 1/zeta) keeps the order of the four decays
  // (header comment).
  return std::pow(MinPairDecay(v, w), 1.0 / zeta);
}

bool KernelCache::IsSeparatedFrom(int v, std::span<const int> L, double eta,
                                  double zeta) const {
  const double needed = eta * LinkLength(v, zeta);
  const double inv_zeta = 1.0 / zeta;
  for (int w : L) {
    if (w == v) continue;
    if (std::pow(MinPairDecay(v, w), inv_zeta) < needed) return false;
  }
  return true;
}

std::vector<int> KernelCache::OrderByDecay() const {
  return DecayOrder(*this, AllLinks(*this));
}

// --- accumulators -----------------------------------------------------------

void AccumulatorMembers::Insert(int v) {
  DL_CHECK(!Contains(v), "link already in the accumulator");
  members_.push_back(v);
  in_set_[static_cast<std::size_t>(v)] = 1;
}

void AccumulatorMembers::Reset() {
  for (int v : members_) in_set_[static_cast<std::size_t>(v)] = 0;
  members_.clear();
}

FeasibilityAccumulator::FeasibilityAccumulator(const KernelCache& kernel)
    : AccumulatorMembers(kernel.NumLinks()),
      kernel_(&kernel),
      in_raw_(static_cast<std::size_t>(kernel.NumLinks()), 0.0) {}

void FeasibilityAccumulator::Add(int v) {
  Insert(v);
  // Row v of the matrix is a_v(.): v's pressure on every receiver.
  const double* from_v =
      kernel_->aff_raw_.data() + Idx(v, 0, kernel_->NumLinks());
  for (std::size_t u = 0; u < in_raw_.size(); ++u) in_raw_[u] += from_v[u];
}

bool FeasibilityAccumulator::CanAddFeasibly(int v) const {
  AdmissionCheckCounter().Add();
  if (InRaw(v) > 1.0) return false;
  for (int w : members()) {
    if (InRaw(w) + kernel_->AffectanceRaw(v, w) > 1.0) return false;
  }
  return true;
}

void FeasibilityAccumulator::Clear() {
  Reset();
  std::fill(in_raw_.begin(), in_raw_.end(), 0.0);
}

AffectanceAccumulator::AffectanceAccumulator(const KernelCache& kernel)
    : AccumulatorMembers(kernel.NumLinks()),
      kernel_(&kernel),
      in_(static_cast<std::size_t>(kernel.NumLinks()), 0.0),
      out_(static_cast<std::size_t>(kernel.NumLinks()), 0.0) {}

void AffectanceAccumulator::Add(int v) {
  Insert(v);
  const int n = kernel_->NumLinks();
  // Row v of the matrix is a_v(.), row v of the transpose is a_.(v).
  const double* from_v = kernel_->aff_raw_.data() + Idx(v, 0, n);
  const double* into_v = kernel_->AffectanceIntoRow(v).data();
  for (int u = 0; u < n; ++u) {
    const std::size_t su = static_cast<std::size_t>(u);
    const double av_u = from_v[su];  // a_v(u): v's pressure on u
    const double au_v = into_v[su];  // a_u(v): u's pressure on v
    in_[su] += av_u < 1.0 ? av_u : 1.0;
    out_[su] += au_v < 1.0 ? au_v : 1.0;
  }
}

// --- SeparationOracle --------------------------------------------------------

SeparationOracle::SeparationOracle(const KernelCache& kernel, double eta,
                                   double zeta)
    : kernel_(&kernel),
      eta_(eta),
      inv_zeta_(1.0 / zeta),
      eta_pow_(std::pow(eta, zeta)) {
  DL_CHECK(eta > 0.0 && zeta > 0.0, "eta and zeta must be positive");
}

// Decides min_pair^{1/zeta} >= needed where needed = eta * scale^{1/zeta}
// for scale = scale_decay, comparing in the decay domain when the values are
// clearly on one side of the threshold and replicating the naive pow
// expression inside the guard band.
bool SeparationOracle::Decide(double min_pair, double scale_decay) const {
  const double thr = eta_pow_ * scale_decay;
  if (min_pair > thr * (1.0 + kBand)) return true;
  if (min_pair < thr * (1.0 - kBand)) return false;
  return std::pow(min_pair, inv_zeta_) >=
         eta_ * std::pow(scale_decay, inv_zeta_);
}

bool SeparationOracle::IsSeparated(int v, int w) const {
  return Decide(kernel_->MinPairDecay(v, w), kernel_->LinkDecay(v));
}

bool SeparationOracle::IsSeparatedFrom(int v, std::span<const int> L) const {
  const double fvv = kernel_->LinkDecay(v);
  const double thr_lo = eta_pow_ * fvv * (1.0 - kBand);
  const double thr_hi = eta_pow_ * fvv * (1.0 + kBand);
  for (int w : L) {
    if (w == v) continue;
    const double m = kernel_->MinPairDecay(v, w);
    if (m > thr_hi) continue;          // clearly separated
    if (m < thr_lo) return false;      // clearly too close
    if (std::pow(m, inv_zeta_) < eta_ * std::pow(fvv, inv_zeta_)) return false;
  }
  return true;
}

bool SeparationOracle::ConflictMaxLength(int v, int w) const {
  const double m = kernel_->MinPairDecay(v, w);
  const double scale = std::max(kernel_->LinkDecay(v), kernel_->LinkDecay(w));
  const double thr = eta_pow_ * scale;
  if (m > thr * (1.0 + kBand)) return false;
  if (m < thr * (1.0 - kBand)) return true;
  // Knife edge: exactly the naive expression (max of pows == pow of max).
  const double needed = eta_ * std::pow(scale, inv_zeta_);
  return std::pow(m, inv_zeta_) < needed;
}

long long KernelCache::MemoryBytes() const noexcept {
  const std::size_t doubles = aff_raw_.capacity() + aff_raw_t_.capacity() +
                              link_decay_.capacity() + noise_factor_.capacity();
  return static_cast<long long>(doubles * sizeof(double) +
                                can_overcome_.capacity() * sizeof(char)) +
         (own_planes_ != nullptr ? own_planes_->MemoryBytes() : 0);
}

}  // namespace decaylib::sinr
