#include "engine/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "core/check.h"
#include "core/metricity.h"
#include "geom/grid.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "obs/registry.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

namespace decaylib::engine {

namespace {

// Registry handles of the geometry cache's LRU layer, resolved once.
// Metric name catalogue: docs/observability.md.
obs::Counter& GenerationHitCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("engine.geometry_generation_hits");
  return counter;
}

obs::Counter& GenerationEvictionCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("engine.geometry_evictions");
  return counter;
}

// Seed policy: one independent, reproducible stream per (family, instance).
std::uint64_t InstanceSeed(std::uint64_t base, int index) {
  return geom::Mix64(base +
                     0x9e3779b97f4a7c15ULL *
                         (static_cast<std::uint64_t>(index) + 1));
}

// A decay space plus the planar points it was sampled from; `points` stays
// empty when the space is not coordinate-backed (no registered topology
// produces such a space today, but the pairing dispatch is written for it).
struct SampledSpace {
  core::DecaySpace space;
  std::vector<geom::Vec2> points;
};

// Geometric space over explicit points, with the spec's shadowing regime.
core::DecaySpace SpaceFromPoints(const ScenarioSpec& spec,
                                 const std::vector<geom::Vec2>& pts,
                                 geom::Rng& rng) {
  if (spec.sigma_db > 0.0) {
    return spaces::ShadowedGeometric(pts, spec.alpha, spec.sigma_db, rng,
                                     spec.symmetric_shadowing);
  }
  return core::DecaySpace::Geometric(pts, spec.alpha);
}

// --- topology generators ---------------------------------------------------
//
// Each produces a decay space over `points` nodes at roughly constant
// density, so instance difficulty scales with size rather than crowding.

SampledSpace UniformTopology(const ScenarioSpec& spec, int points,
                             geom::Rng& rng) {
  const double box = 2.0 * std::sqrt(static_cast<double>(points));
  std::vector<geom::Vec2> pts = geom::SampleUniform(points, box, box, rng);
  core::DecaySpace space = SpaceFromPoints(spec, pts, rng);
  return {std::move(space), std::move(pts)};
}

SampledSpace ClusteredTopology(const ScenarioSpec& spec, int points,
                               geom::Rng& rng) {
  const double box = 2.0 * std::sqrt(static_cast<double>(points));
  std::vector<geom::Vec2> pts;
  core::DecaySpace space = spaces::ClusteredGeometric(
      points, spec.hotspots, box, spec.cluster_sigma, spec.alpha,
      spec.sigma_db, rng, spec.symmetric_shadowing, &pts);
  return {std::move(space), std::move(pts)};
}

SampledSpace CorridorTopology(const ScenarioSpec& spec, int points,
                              geom::Rng& rng) {
  const double length = 2.0 * static_cast<double>(points);
  std::vector<geom::Vec2> pts;
  core::DecaySpace space = spaces::CorridorSpace(
      points, length, spec.corridor_width, spec.alpha, spec.sigma_db, rng,
      spec.symmetric_shadowing, &pts);
  return {std::move(space), std::move(pts)};
}

SampledSpace GridTopology(const ScenarioSpec& spec, int points,
                          geom::Rng& rng) {
  // Cell centers on a regular grid (spacing ~2), each jittered inside its
  // cell: a cellular layout with one node per cell.
  const double side = 2.0 * std::ceil(std::sqrt(static_cast<double>(points)));
  std::vector<geom::Vec2> pts = geom::SampleGrid(points, side, side);
  for (geom::Vec2& p : pts) {
    p.x += rng.Uniform(-0.5, 0.5);
    p.y += rng.Uniform(-0.5, 0.5);
  }
  core::DecaySpace space = SpaceFromPoints(spec, pts, rng);
  return {std::move(space), std::move(pts)};
}

using TopologyGenerator = SampledSpace (*)(const ScenarioSpec&, int,
                                           geom::Rng&);

const std::vector<std::pair<std::string, TopologyGenerator>>& TopologyTable() {
  static const std::vector<std::pair<std::string, TopologyGenerator>> table = {
      {"uniform", &UniformTopology},
      {"clustered", &ClusteredTopology},
      {"corridor", &CorridorTopology},
      {"grid", &GridTopology},
  };
  return table;
}

TopologyGenerator FindTopology(const std::string& name) {
  for (const auto& [key, gen] : TopologyTable()) {
    if (key == name) return gen;
  }
  return nullptr;
}

// Orientation shared by both pairing paths: along the weaker-decay
// direction (ties keep the lower id as sender), so the link's own decay
// f_vv is the pair's best case.  `decay(p, q)` is f(p, q): the space itself
// on the sort path, the points' GeometricDecay on the grid path.
template <typename Decay>
sinr::Link OrientPair(const Decay& decay, int i, int j) {
  if (decay(i, j) <= decay(j, i)) return {i, j};
  return {j, i};
}

// Whether a geometry carries shared link planes for `spec`: dense specs
// over distance-pure decay, where the planes are computed from the points
// and replace the node-matrix fill.  A shadowed space is filled at
// sampling anyway, and its kernels gather private planes from the matrix:
// shared planes beside the matrix would add 2 n^2 doubles to the peak of a
// measured-zeta instance, whose metricity scratch is allocated after
// sampling (+0.8 MB on the 192-link shadowed_power benchmark workload).
bool SharesPlanes(const ScenarioSpec& spec, const ScenarioGeometry& geometry) {
  return spec.kernel_mode == KernelMode::kDense && spec.sigma_db == 0.0 &&
         !geometry.points.empty();
}

// Builds the geometry's link planes, shared by every dense kernel on it.
void AttachPlanes(ScenarioGeometry& geometry) {
  auto planes = std::make_shared<sinr::LinkPlanes>();
  sinr::BuildLinkPlanes(*geometry.space, geometry.links, *planes);
  geometry.planes = std::move(planes);
}

}  // namespace

ScenarioInstance::ScenarioInstance(
    std::shared_ptr<const core::DecaySpace> space,
    std::vector<sinr::Link> links, sinr::SinrConfig config, double zeta,
    std::shared_ptr<const sinr::LinkPlanes> planes)
    : space_(std::move(space)),
      system_(std::make_unique<sinr::LinkSystem>(
          *space_, std::move(links), config, std::move(planes))),
      power_(sinr::UniformPower(*system_)),
      zeta_(zeta) {}

std::vector<std::string> RegisteredTopologies() {
  std::vector<std::string> names;
  names.reserve(TopologyTable().size());
  for (const auto& [key, gen] : TopologyTable()) names.push_back(key);
  return names;
}

bool IsRegisteredTopology(const std::string& topology) {
  return FindTopology(topology) != nullptr;
}

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kDense: return "dense";
    case KernelMode::kFarField: return "farfield";
  }
  return "unknown";
}

std::optional<KernelMode> ParseKernelMode(const std::string& name) {
  if (name == "dense") return KernelMode::kDense;
  if (name == "farfield") return KernelMode::kFarField;
  return std::nullopt;
}

core::Status ValidateScenarioSpec(const ScenarioSpec& spec) {
  using core::Status;
  if (!IsRegisteredTopology(spec.topology)) {
    return Status::InvalidArgument("unknown topology '" + spec.topology + "'");
  }
  if (spec.links < 1) {
    return Status::InvalidArgument("links must be >= 1");
  }
  if (spec.instances < 1) {
    return Status::InvalidArgument("instances must be >= 1");
  }
  if (!(std::isfinite(spec.alpha) && spec.alpha > 0.0)) {
    return Status::InvalidArgument(
        "alpha must be a positive finite decay exponent");
  }
  if (!(std::isfinite(spec.sigma_db) && spec.sigma_db >= 0.0)) {
    return Status::InvalidArgument(
        "sigma_db must be a non-negative finite shadowing spread");
  }
  if (!std::isfinite(spec.power_tau)) {
    return Status::InvalidArgument("power_tau must be finite");
  }
  // The SINR model requires beta >= 1 (LinkSystem's precondition); catching
  // it here keeps bad CLI/sweep input out of the constructor's DL_CHECK.
  if (!(std::isfinite(spec.beta) && spec.beta >= 1.0)) {
    return Status::InvalidArgument("beta must be a finite threshold >= 1");
  }
  if (!(std::isfinite(spec.noise) && spec.noise >= 0.0)) {
    return Status::InvalidArgument(
        "noise must be a non-negative finite ambient level");
  }
  if (!std::isfinite(spec.zeta)) {
    return Status::InvalidArgument(
        "zeta must be finite (> 0 explicit, 0 = alpha, < 0 = measured)");
  }
  if (spec.hotspots < 1) {
    return Status::InvalidArgument("hotspots must be >= 1");
  }
  if (!(std::isfinite(spec.cluster_sigma) && spec.cluster_sigma > 0.0)) {
    return Status::InvalidArgument("cluster_sigma must be positive and finite");
  }
  if (!(std::isfinite(spec.corridor_width) && spec.corridor_width > 0.0)) {
    return Status::InvalidArgument(
        "corridor_width must be positive and finite");
  }
  if (!(std::isfinite(spec.farfield_epsilon) && spec.farfield_epsilon >= 0.0)) {
    return Status::InvalidArgument(
        "farfield_epsilon must be a non-negative finite relative error bound");
  }
  // The far-field kernel pools geometric decay contributions per cell; the
  // certificate needs decays that are a pure function of distance (no
  // shadowing) and a uniform base power (the pooled factor c_v * f_vv must
  // not depend on the interferer).
  if (spec.kernel_mode == KernelMode::kFarField) {
    if (spec.sigma_db != 0.0) {
      return Status::InvalidArgument(
          "kernel_mode=farfield requires sigma_db == 0 (distance-pure decay)");
    }
    if (spec.power_tau != 0.0) {
      return Status::InvalidArgument(
          "kernel_mode=farfield requires uniform power (power_tau == 0)");
    }
  }
  // Dynamics knobs are validated unconditionally -- a spec is either valid
  // or it is not, independent of which tasks a given batch happens to run.
  const DynamicsSpec& dyn = spec.dynamics;
  if (!(std::isfinite(dyn.lambda) && dyn.lambda >= 0.0 && dyn.lambda <= 1.0)) {
    return Status::InvalidArgument(
        "lambda is a per-slot Bernoulli probability in [0, 1]");
  }
  if (dyn.queue_slots < 1) {
    return Status::InvalidArgument("queue_slots must be >= 1");
  }
  if (!(dyn.regret_learning_rate > 0.0 && dyn.regret_learning_rate < 1.0)) {
    return Status::InvalidArgument("regret learning rate must be in (0, 1)");
  }
  if (!(std::isfinite(dyn.regret_penalty) && dyn.regret_penalty >= 0.0)) {
    return Status::InvalidArgument(
        "regret penalty must be a non-negative finite cost");
  }
  if (dyn.regret_rounds < 1) {
    return Status::InvalidArgument("regret_rounds must be >= 1");
  }
  return Status::Ok();
}

std::vector<sinr::Link> PairLinksByDecay(const core::DecaySpace& space) {
  const int n = space.size();
  DL_CHECK(n >= 2 && n % 2 == 0, "pairing needs an even number of nodes");
  std::vector<std::tuple<double, int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) /
                2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      pairs.emplace_back(std::min(space(i, j), space(j, i)), i, j);
    }
  }
  // A full sort, deliberately: the greedy matching consumes nearly the
  // whole order before the last (far-apart) nodes pair up -- ~98% of the
  // n^2/2 candidates at n = 1024 nodes -- so lazy selection (heap pops)
  // only adds overhead.  PairLinksByDecayGrid sidesteps the order entirely
  // for coordinate-backed spaces.
  std::sort(pairs.begin(), pairs.end());
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  std::vector<sinr::Link> links;
  links.reserve(static_cast<std::size_t>(n / 2));
  for (const auto& [decay, i, j] : pairs) {
    if (used[static_cast<std::size_t>(i)] || used[static_cast<std::size_t>(j)])
      continue;
    used[static_cast<std::size_t>(i)] = 1;
    used[static_cast<std::size_t>(j)] = 1;
    links.push_back(OrientPair(space, i, j));
    if (static_cast<int>(links.size()) == n / 2) break;
  }
  return links;
}

std::vector<sinr::Link> PairLinksByDecayGrid(
    std::span<const geom::Vec2> points, double alpha) {
  const int n = static_cast<int>(points.size());
  DL_CHECK(n >= 2 && n % 2 == 0, "pairing needs an even number of nodes");
  DL_CHECK(alpha > 0.0, "grid pairing needs a positive decay exponent");
  // DecaySpace::Geometric(points, alpha)'s entries, computed on demand, so
  // pairing never fills the space's matrix.
  const auto decay = [&](int p, int q) {
    return geom::GeometricDecay(points[static_cast<std::size_t>(p)],
                                points[static_cast<std::size_t>(q)], alpha);
  };

  std::vector<int> alive(static_cast<std::size_t>(n));
  std::iota(alive.begin(), alive.end(), 0);
  std::vector<int> best(static_cast<std::size_t>(n), -1);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  // Matched pairs with their weights; sorted at the end so link ids come
  // out in exactly the ascending (weight, lo, hi) order the sorted greedy
  // emits them in.
  std::vector<std::tuple<double, int, int>> matched;
  matched.reserve(static_cast<std::size_t>(n / 2));

  while (!alive.empty()) {
    const geom::UniformGrid grid(points, alive);

    // Phase 1: every alive node's best alive partner under the greedy's
    // strict total order on pairs, (weight, lo id, hi id).  Weights are the
    // decay-matrix entries' values; the expanding ring search stops once
    // the ring's distance bound proves -- via pow's weak monotonicity --
    // that no unvisited candidate can match the incumbent's weight, so ties
    // at equal weight (however the ids fall) are always still in play.
    for (const int i : alive) {
      const geom::Vec2 p = points[static_cast<std::size_t>(i)];
      int best_j = -1;
      double best_w = std::numeric_limits<double>::infinity();
      for (int ring = 0;; ++ring) {
        // The prune bound deliberately mirrors the space's
        // pow(distance, alpha) so the ring cutoff can never under-estimate
        // a candidate's decay.
        if (best_j >= 0 &&
            // decay-lint: allow(exactness-pow) -- mirrors the space's decay
            std::pow(grid.RingDistanceLowerBound(ring), alpha) > best_w) {
          break;
        }
        const bool any_cell = grid.VisitRing(p, ring, [&](int j) {
          if (j == i) return;
          const double w = std::min(decay(i, j), decay(j, i));
          if (best_j < 0 || w < best_w) {
            best_w = w;
            best_j = j;
          } else if (w == best_w) {
            const int lo = i < j ? i : j;
            const int hi = i < j ? j : i;
            const int blo = i < best_j ? i : best_j;
            const int bhi = i < best_j ? best_j : i;
            if (lo < blo || (lo == blo && hi < bhi)) best_j = j;
          }
        });
        if (!any_cell) break;
      }
      best[static_cast<std::size_t>(i)] = best_j;
    }

    // Phase 2: match every mutual-best pair (at least the globally minimal
    // pair is one, so every round makes progress) and drop it from play.
    for (const int i : alive) {
      const int j = best[static_cast<std::size_t>(i)];
      if (j > i && best[static_cast<std::size_t>(j)] == i) {
        matched.emplace_back(std::min(decay(i, j), decay(j, i)), i, j);
        used[static_cast<std::size_t>(i)] = 1;
        used[static_cast<std::size_t>(j)] = 1;
      }
    }
    std::erase_if(alive,
                  [&](int i) { return used[static_cast<std::size_t>(i)] != 0; });
  }

  std::sort(matched.begin(), matched.end());
  std::vector<sinr::Link> links;
  links.reserve(matched.size());
  for (const auto& [w, i, j] : matched) {
    links.push_back(OrientPair(decay, i, j));
  }
  return links;
}

GeometryKey GeometryKeyOf(const ScenarioSpec& spec) {
  GeometryKey key;
  key.topology = spec.topology;
  key.links = spec.links;
  key.alpha = spec.alpha;
  key.sigma_db = spec.sigma_db;
  key.symmetric_shadowing = spec.symmetric_shadowing;
  key.seed = spec.seed;
  key.hotspots = spec.hotspots;
  key.cluster_sigma = spec.cluster_sigma;
  key.corridor_width = spec.corridor_width;
  return key;
}

ScenarioGeometry BuildGeometry(const ScenarioSpec& spec, int index,
                               PairingMode pairing) {
  DL_CHECK(spec.links >= 1, "scenario needs at least one link");
  DL_CHECK(index >= 0, "instance index must be non-negative");
  const TopologyGenerator generator = FindTopology(spec.topology);
  DL_CHECK(generator != nullptr, "unknown scenario topology");

  geom::Rng rng(InstanceSeed(spec.seed, index));
  const int points = 2 * spec.links;
  SampledSpace sampled = generator(spec, points, rng);

  ScenarioGeometry geometry;
  geometry.space = std::make_shared<const core::DecaySpace>(
      std::move(sampled.space));
  geometry.points = std::move(sampled.points);

  // Grid/MNN pairing requires decay to be a monotone function of point
  // distance, which shadowing destroys (the matrix is then arbitrary even
  // though points exist); both routes produce the identical matching.
  const bool monotone_geometry =
      !geometry.points.empty() && spec.sigma_db == 0.0;
  geometry.links =
      (pairing == PairingMode::kAuto && monotone_geometry)
          ? PairLinksByDecayGrid(geometry.points, spec.alpha)
          : PairLinksByDecay(*geometry.space);
  // Dense geometric specs pay the O(n^2) link planes here, once per
  // geometry, from the points: the matrix stays unfilled (DecaySpace
  // header comment).  A far-field spec's tasks read the points, so it
  // builds none.
  if (SharesPlanes(spec, geometry)) AttachPlanes(geometry);
  return geometry;
}

double EnsureMeasuredZeta(ScenarioGeometry& geometry) {
  if (!geometry.zeta_measured) {
    geometry.measured_zeta = core::ComputeMetricity(*geometry.space).zeta;
    geometry.zeta_measured = true;
  }
  return geometry.measured_zeta;
}

ScenarioInstance ConfigureInstance(const ScenarioSpec& spec,
                                   const ScenarioGeometry& geometry) {
  // zeta policy: explicit > 0, geometric default (alpha) at 0, measured
  // per instance when negative (falling back to alpha for unconstrained
  // spaces, where any positive exponent works).
  double zeta = spec.zeta;
  if (zeta == 0.0) {
    zeta = spec.alpha;
  } else if (zeta < 0.0) {
    DL_CHECK(geometry.zeta_measured,
             "a zeta < 0 spec needs EnsureMeasuredZeta before configuring");
    zeta = geometry.measured_zeta > 0.0 ? geometry.measured_zeta : spec.alpha;
  }

  ScenarioInstance instance(geometry.space, geometry.links,
                            {spec.beta, spec.noise}, zeta, geometry.planes);

  // The constructor's default power is already uniform; only replace it
  // when the spec asks for a power law or a noise-overcoming rescale.
  if (spec.power_tau != 0.0 || spec.noise > 0.0) {
    sinr::PowerAssignment power =
        spec.power_tau == 0.0
            ? instance.power()
            : sinr::PowerLaw(instance.system(), spec.power_tau);
    if (spec.noise > 0.0) {
      power = sinr::ScaledToOvercomeNoise(instance.system(), std::move(power));
    }
    instance.SetPower(std::move(power));
  }
  return instance;
}

ScenarioInstance BuildInstance(const ScenarioSpec& spec, int index,
                               PairingMode pairing) {
  ScenarioGeometry geometry = BuildGeometry(spec, index, pairing);
  if (spec.zeta < 0.0) EnsureMeasuredZeta(geometry);
  return ConfigureInstance(spec, geometry);
}

void GeometryCache::SetGenerations(int generations) {
  DL_CHECK(generations >= 1, "geometry cache needs at least one generation");
  capacity_ = generations;
  EvictOverCapacity();
}

void GeometryCache::EvictOverCapacity() {
  while (static_cast<int>(generations_.size()) > capacity_) {
    generations_.pop_back();
    ++evictions_;
    GenerationEvictionCounter().Add();
  }
}

void GeometryCache::Prepare(const ScenarioSpec& spec) {
  DL_CHECK(spec.instances >= 1, "geometry cache needs at least one instance");
  GeometryKey key = GeometryKeyOf(spec);
  auto it = std::find_if(
      generations_.begin(), generations_.end(),
      [&](const Generation& g) { return g.key == key; });
  if (it != generations_.end()) {
    // A generation's slots always match its key, so nothing invalidates:
    // splice the node to the front (no slot moves, warm references survive).
    if (it != generations_.begin()) {
      generations_.splice(generations_.begin(), generations_, it);
    }
    ++generation_hits_;
    GenerationHitCounter().Add();
  } else {
    generations_.emplace_front(Generation{std::move(key), {}});
    EvictOverCapacity();
  }
  std::deque<Slot>& slots = generations_.front().slots;
  if (static_cast<int>(slots.size()) < spec.instances) {
    slots.resize(static_cast<std::size_t>(spec.instances));
  }
}

const ScenarioGeometry& GeometryCache::Acquire(const ScenarioSpec& spec,
                                               int index, PairingMode pairing,
                                               bool* built) {
  DL_CHECK(!generations_.empty() &&
               GeometryKeyOf(spec) == generations_.front().key,
           "Acquire needs a Prepare with a key-equal spec first");
  std::deque<Slot>& slots = generations_.front().slots;
  DL_CHECK(index >= 0 && index < static_cast<int>(slots.size()),
           "instance index outside the prepared slot range");
  Slot& slot = slots[static_cast<std::size_t>(index)];
  if (built != nullptr) *built = !slot.valid;
  if (!slot.valid) {
    slot.geometry = BuildGeometry(spec, index, pairing);
    slot.valid = true;
    builds_.fetch_add(1, std::memory_order_relaxed);
  } else {
    reuses_.fetch_add(1, std::memory_order_relaxed);
    // A slot sampled for a far-field spec has no planes yet.
    if (slot.geometry.planes == nullptr && SharesPlanes(spec, slot.geometry)) {
      AttachPlanes(slot.geometry);
    }
  }
  // The measurement is a geometry property; memoise it in the slot so a
  // grid that sweeps zeta across negative and explicit values pays the
  // O(n^3) scan once per geometry, not once per cell.
  if (spec.zeta < 0.0 && !slot.geometry.zeta_measured) {
    EnsureMeasuredZeta(slot.geometry);
  }
  return slot.geometry;
}

std::vector<ScenarioSpec> BuiltinScenarios() {
  std::vector<ScenarioSpec> specs;

  ScenarioSpec uniform;
  uniform.name = "uniform_dense";
  uniform.topology = "uniform";
  uniform.alpha = 3.0;
  uniform.seed = 101;
  specs.push_back(uniform);

  ScenarioSpec clustered;
  clustered.name = "clustered_hotspots";
  clustered.topology = "clustered";
  clustered.alpha = 3.5;
  clustered.hotspots = 6;
  clustered.cluster_sigma = 1.5;
  clustered.seed = 202;
  specs.push_back(clustered);

  ScenarioSpec corridor;
  corridor.name = "highway_corridor";
  corridor.topology = "corridor";
  corridor.alpha = 3.0;
  corridor.corridor_width = 2.0;
  corridor.seed = 303;
  specs.push_back(corridor);

  ScenarioSpec grid;
  grid.name = "grid_hetero_power";
  grid.topology = "grid";
  grid.alpha = 3.0;
  grid.power_tau = 0.5;  // mean power: heterogeneous but monotone
  grid.noise = 0.01;
  grid.seed = 404;
  specs.push_back(grid);

  ScenarioSpec shadowed_sym;
  shadowed_sym.name = "shadowed_symmetric";
  shadowed_sym.topology = "uniform";
  shadowed_sym.alpha = 3.0;
  shadowed_sym.sigma_db = 6.0;
  shadowed_sym.symmetric_shadowing = true;
  // Shadowing pushes metricity above alpha; 2 lg(shadow range) of headroom
  // keeps the separation test meaningful without measuring per instance.
  shadowed_sym.zeta = 4.0;
  shadowed_sym.seed = 505;
  specs.push_back(shadowed_sym);

  ScenarioSpec shadowed_asym;
  shadowed_asym.name = "shadowed_asymmetric";
  shadowed_asym.topology = "uniform";
  shadowed_asym.alpha = 3.0;
  shadowed_asym.sigma_db = 6.0;
  shadowed_asym.symmetric_shadowing = false;
  shadowed_asym.zeta = -1.0;  // measured per instance
  shadowed_asym.seed = 606;
  specs.push_back(shadowed_asym);

  return specs;
}

std::optional<ScenarioSpec> FindBuiltinScenario(const std::string& name) {
  for (ScenarioSpec& spec : BuiltinScenarios()) {
    if (spec.name == name) return std::move(spec);
  }
  return std::nullopt;
}

}  // namespace decaylib::engine
