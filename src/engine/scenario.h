// Declarative deployment scenarios (the workload layer of the library).
//
// A ScenarioSpec describes a *family* of deployments as pure data: which
// topology generator lays out the nodes, how many links and instances, the
// decay model (path-loss exponent + shadowing regime), the power assignment,
// the SINR configuration, and the seed/zeta policies.  BuildInstance turns
// (spec, instance index) into a concrete ScenarioInstance -- deterministic:
// the same pair always yields bit-identical decay matrices, links and
// powers, regardless of which thread or process builds it.
//
// Instance construction is split along the axis the sweep layer exploits:
//   * BuildGeometry samples everything that consumes randomness or scales
//     super-linearly -- the decay space (with its planar points, when the
//     topology is coordinate-backed), the greedy link pairing, the link
//     planes every dense kernel on the geometry shares, and the lazily
//     measured metricity.  Geometry depends only on the spec fields
//     collected in GeometryKey plus the instance index.
//   * ConfigureInstance applies the cheap per-cell knobs (beta, noise,
//     power_tau, the zeta policy) to a geometry, costing O(links).
// BuildInstance is exactly BuildGeometry + ConfigureInstance; GeometryCache
// keeps one grid cell's worth of geometries warm so sweep cells that differ
// only in non-geometric axes skip the sampling entirely (batch_runner.h
// wires it into the worker pool, sweep_runner.h shares one across a grid).
//
// Topology generators are looked up in a registry by name; the built-in
// kinds cover uniform boxes, Matérn-style clustered hotspots, line/highway
// corridors and jittered grid cells (spaces/samplers.h provides the
// underlying decay-space samplers).  A generator produces a decay space
// over 2 * links nodes (plus the sampled coordinates, when it is
// geometric); links are then formed by a topology-agnostic greedy pairing
// that repeatedly matches the two unused nodes with the smallest
// symmetrised decay, so every topology yields short, plausible
// sender/receiver pairs without bespoke per-topology link logic.  For
// coordinate-backed, shadowing-free topologies the pairing runs as
// mutual-nearest-neighbour rounds over a geom::UniformGrid -- near-linear
// instead of O(n^2 log n), provably the identical matching -- with the
// full-sort path kept as the fallback for matrix-only spaces and as the
// test oracle (PairingMode selects explicitly).
//
// BuiltinScenarios() is the registry of named presets the batch runner,
// scenario_runner CLI and benches share: one spec per deployment family
// (uniform, clustered, corridor, heterogeneous-power grid, symmetric and
// asymmetric shadowing).  docs/scenarios.md documents the schema and how to
// add a new scenario.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/decay_space.h"
#include "core/status.h"
#include "dynamics/queue_system.h"
#include "geom/point.h"
#include "sinr/link_system.h"

namespace decaylib::engine {

// Traffic/dynamics knobs consumed by TaskKind::kQueue and kRegret (ignored
// by every other task).  Non-geometric: two specs differing only here share
// a GeometryKey, so a sweep whose trailing axis is lambda or regret_penalty
// reuses one sampled geometry across the whole row.  Out-of-range values
// are rejected by ValidateScenarioSpec before any worker starts (lambda is
// a per-slot Bernoulli probability; feeding Rng::Chance anything outside
// [0, 1] would silently distort the arrival process).
struct DynamicsSpec {
  double lambda = 0.1;  // per-link Bernoulli arrival rate, in [0, 1]
  dynamics::Scheduler scheduler = dynamics::Scheduler::kLongestQueueFirst;
  int queue_slots = 400;  // simulated slots; warmup = queue_slots / 10

  double regret_learning_rate = 0.1;  // multiplicative-weights eta, in (0, 1)
  double regret_penalty = 1.0;        // failed-transmission cost, >= 0
  int regret_rounds = 400;            // game rounds; tail = rounds / 4

  friend bool operator==(const DynamicsSpec&, const DynamicsSpec&) = default;
};

// Which affectance kernel the batch runner builds per instance.
//   * kDense: the O(n^2) sinr::KernelCache (the default; exact, and the
//     bit-exactness reference every other mode is gated against).
//   * kFarField: the matrix-free sinr::FarFieldKernel for the tasks that
//     support it (algorithm1, greedy, schedule) -- O(n) memory, pooled
//     distant-cell affectance with certified relative error
//     farfield_epsilon; at epsilon == 0 every query is exact and results
//     are bit-identical to dense.  Requires a coordinate-backed,
//     shadowing-free spec with uniform base power (sigma_db == 0,
//     power_tau == 0; ValidateScenarioSpec rejects the rest).  Tasks
//     without a far-field path still build the dense kernel lazily (its
//     private link planes fill the decay matrix and gather from it), and
//     the matrix is filled only when something reads it (BuildGeometry),
//     so an instance whose tasks all run far-field stays O(n) end to end.
enum class KernelMode { kDense, kFarField };

// Stable name of a kernel mode ("dense" / "farfield"), and its inverse for
// CLI / sweep-axis input (nullopt on an unknown name).
const char* KernelModeName(KernelMode mode);
std::optional<KernelMode> ParseKernelMode(const std::string& name);

// Pure-data description of a deployment family.  Every field has a sane
// default so specs can be written as designated initialisers.
struct ScenarioSpec {
  std::string name;                  // display name of the family
  std::string topology = "uniform";  // registered topology kind

  int links = 64;      // links per instance (2 * links nodes)
  int instances = 8;   // instances in a batch

  // Decay model.
  double alpha = 3.0;     // path-loss exponent
  double sigma_db = 0.0;  // lognormal shadowing std dev in dB (0 = none)
  bool symmetric_shadowing = true;

  // Power and SINR regime.
  double power_tau = 0.0;  // P_v proportional to f_vv^tau (0 = uniform)
  double beta = 1.0;       // SINR threshold
  double noise = 0.0;      // ambient noise (power is rescaled to overcome it)

  // zeta policy: > 0 uses the value as-is, == 0 uses alpha (the geometric
  // bound), < 0 measures ComputeMetricity per instance (exact but O(n^3)).
  double zeta = 0.0;

  // Seed policy: instance i seeds its generator stream with
  // Mix64(seed + golden * (i + 1)) (InstanceSeed in scenario.cc), so
  // instances are independent and reproducible.
  std::uint64_t seed = 1;

  // Kernel path (non-geometric: two specs differing only here share a
  // GeometryKey).  farfield_epsilon is the certified relative error bound
  // of pooled far-field affectance queries; 0 forces every query exact
  // (dense-bit-identical results).  Ignored under kDense.
  KernelMode kernel_mode = KernelMode::kDense;
  double farfield_epsilon = 1e-3;

  // Topology shape knobs (ignored by topologies that do not use them).
  int hotspots = 5;             // clustered: number of hotspot centers
  double cluster_sigma = 1.5;   // clustered: point spread around a center
  double corridor_width = 2.0;  // corridor: strip width (length scales w/ n)

  // Traffic/dynamics knobs (TaskKind::kQueue / kRegret only).
  DynamicsSpec dynamics;
};

// How link pairing runs inside BuildGeometry / BuildInstance.
enum class PairingMode {
  // Grid-accelerated mutual-nearest-neighbour rounds when the topology is
  // coordinate-backed and shadowing-free (decay monotone in distance);
  // sort-greedy otherwise.  Produces the identical matching either way.
  kAuto,
  // Always the O(n^2 log n) full-sort reference path (the test oracle and
  // the bench A/B baseline).
  kSortGreedy,
};

// The sampled, cell-invariant part of an instance: the decay space, the
// planar points behind it (empty for matrix-only spaces), the greedy link
// pairing, the link planes (cross and min-pair decays, sinr::LinkPlanes)
// and -- measured lazily, only when a spec's zeta policy asks -- the
// metricity of the space.  Everything downstream of the spec's
// GeometryKey and the instance index; nothing here depends on beta, noise,
// power_tau or the (explicit) zeta.
struct ScenarioGeometry {
  std::shared_ptr<const core::DecaySpace> space;
  std::vector<geom::Vec2> points;  // 2 * links entries when coordinate-backed
  std::vector<sinr::Link> links;
  // Shared read-only by every dense kernel configured from this geometry,
  // and freed with it.  Built for dense specs over distance-pure decay
  // (coordinate-backed, sigma_db == 0) only: by BuildGeometry, or by
  // GeometryCache::Acquire when a dense spec reuses a far-field slot.  Null
  // otherwise; kernels then build private planes from the (filled) matrix.
  std::shared_ptr<const sinr::LinkPlanes> planes;
  double measured_zeta = 0.0;  // valid iff zeta_measured
  bool zeta_measured = false;
};

// The spec fields whose change invalidates sampled geometry.  Two specs
// with equal keys produce bit-identical ScenarioGeometry per instance
// index; power_tau / beta / noise / zeta / instances may differ freely.
struct GeometryKey {
  std::string topology;
  int links = 0;
  double alpha = 0.0;
  double sigma_db = 0.0;
  bool symmetric_shadowing = true;
  std::uint64_t seed = 0;
  int hotspots = 0;
  double cluster_sigma = 0.0;
  double corridor_width = 0.0;

  friend bool operator==(const GeometryKey&, const GeometryKey&) = default;
};

GeometryKey GeometryKeyOf(const ScenarioSpec& spec);

// One realised deployment: a decay space, a link system over it, a power
// assignment and the resolved zeta.  The space (and the link planes, when
// given) are held behind shared pointers so instances configured from a
// cached geometry alias them instead of copying; the LinkSystem holds a
// reference into the space, so instances stay freely movable either way.
class ScenarioInstance {
 public:
  ScenarioInstance(std::shared_ptr<const core::DecaySpace> space,
                   std::vector<sinr::Link> links, sinr::SinrConfig config,
                   double zeta,
                   std::shared_ptr<const sinr::LinkPlanes> planes = nullptr);

  const core::DecaySpace& space() const noexcept { return *space_; }
  const sinr::LinkSystem& system() const noexcept { return *system_; }
  const sinr::PowerAssignment& power() const noexcept { return power_; }
  double zeta() const noexcept { return zeta_; }
  int NumLinks() const noexcept { return system_->NumLinks(); }

  void SetPower(sinr::PowerAssignment power) { power_ = std::move(power); }

 private:
  std::shared_ptr<const core::DecaySpace> space_;
  std::unique_ptr<sinr::LinkSystem> system_;
  sinr::PowerAssignment power_;
  double zeta_;
};

// Registered topology kinds, in registration order.
std::vector<std::string> RegisteredTopologies();
bool IsRegisteredTopology(const std::string& topology);

// Runtime-input validation of a spec: registered topology, positive sizes,
// finite decay/SINR knobs in their documented ranges (beta >= 1, the
// dynamics knobs' probability/positivity constraints, ...).  Returns the
// first violation as Status::InvalidArgument naming the field; specs are
// user/CLI/sweep input, so rejection is an expected error path, not a
// DL_CHECK abort (core/status.h).  BatchRunner::RunOne throws the result as
// core::StatusError; CLI tools and the sweep runner's per-cell isolation
// surface it as a message instead.
core::Status ValidateScenarioSpec(const ScenarioSpec& spec);

// Samples the geometry of instance `index`: decay space (+ points), link
// pairing and, for a dense spec over distance-pure decay, the link planes.
// Deterministic in (GeometryKeyOf(spec), index, pairing is
// result-invisible).  Does NOT measure metricity; see EnsureMeasuredZeta.
// A geometric space stays lazy (points only): the planes are computed from
// the points, and per-link reads (power laws, noise rescaling) do not fill
// it.  Its first full entry read -- measured zeta, sort pairing, an exact
// far-field re-check, a private-plane kernel -- fills it once, whoever reads
// it.  Shadowed spaces
// are filled at sampling and carry no planes: each of their kernels
// gathers private ones from the matrix.  The spec's kernel_mode is not part
// of GeometryKey: the entries are the same either way, and a far-field
// slot gains its planes when a dense spec reuses it.
ScenarioGeometry BuildGeometry(const ScenarioSpec& spec, int index,
                               PairingMode pairing = PairingMode::kAuto);

// Measures (once) and caches the metricity of the geometry's space.
// Returns the measured value; subsequent calls are free.
double EnsureMeasuredZeta(ScenarioGeometry& geometry);

// Applies the cheap per-cell knobs to a geometry: builds the LinkSystem
// under (beta, noise), resolves the zeta policy, assigns power.  O(links)
// beyond the LinkSystem construction.  A spec with zeta < 0 requires
// geometry.zeta_measured (DL_CHECK) -- callers run EnsureMeasuredZeta
// first, as BuildInstance and GeometryCache::Acquire do.
ScenarioInstance ConfigureInstance(const ScenarioSpec& spec,
                                   const ScenarioGeometry& geometry);

// Builds instance `index` of the family: BuildGeometry + (if needed)
// EnsureMeasuredZeta + ConfigureInstance.  Deterministic in (spec, index);
// the pairing mode never changes the result, only the route taken.
// Aborts (DL_CHECK) on an unknown topology or non-positive sizes.
ScenarioInstance BuildInstance(const ScenarioSpec& spec, int index,
                               PairingMode pairing = PairingMode::kAuto);

// Topology-agnostic sender/receiver pairing over an even-sized decay space:
// repeatedly links the two unused nodes with the smallest symmetrised decay
// (ties by node ids), orienting each link along its weaker-decay direction.
// Deterministic; O(n^2 log n).  The reference path and test oracle.
std::vector<sinr::Link> PairLinksByDecay(const core::DecaySpace& space);

// The same matching, computed as iterated mutual-nearest-neighbour rounds
// over a geom::UniformGrid instead of a full sort -- near-linear for the
// typical constant-density deployment.  Exactness: a pair that is mutually
// best under the strict total order (weight, lo id, hi id) is matched by
// the sorted greedy before anything else touches its endpoints, so matching
// all mutual-best pairs and recursing on the remainder reproduces the
// greedy matching exactly; candidate weights are the decay-matrix entries
// geom::GeometricDecay(points[i], points[j], alpha), computed from the
// points (so pairing never fills a lazy space), and the grid only *prunes*
// via pow's weak monotonicity (decay >= pow(ring distance bound, alpha)).
// Equals PairLinksByDecay(DecaySpace::Geometric(points, alpha)) -- i.e.
// symmetric, shadowing-free decays; BuildGeometry dispatches here exactly
// when the space is that.
std::vector<sinr::Link> PairLinksByDecayGrid(std::span<const geom::Vec2> points,
                                             double alpha);

// Warm geometries, kept per GeometryKey *generation*: within a generation,
// slot i holds the geometry of instance i.  Prepare(spec) -- called between
// batches, single-threaded -- moves the spec's generation to the front of
// an LRU list, creating it when absent and evicting the least recently
// used generation beyond the capacity (default 1: exactly the historical
// single-generation behaviour and memory bound); Acquire(spec, i) then
// returns slot i of the front generation, building it (and measuring
// metricity, when the spec's zeta policy needs it) on first touch.  More
// generations pay memory for reuse across *interleaved* keys -- the access
// pattern of a sweep whose geometric axis is not the slowest, where a
// single generation thrashes (docs/sweeps.md).  Thread contract: concurrent
// Acquire calls must use distinct instance indices (the batch runner's
// work-stealing pool claims each index exactly once), and Prepare /
// SetGenerations must not race with Acquire; the runners' pool joins give
// the needed ordering.
class GeometryCache {
 public:
  // LRU capacity in generations (>= 1).  Shrinking evicts the excess least
  // recently used generations immediately.
  void SetGenerations(int generations);
  int generations() const noexcept { return capacity_; }

  // Adopts the spec's key: splices its generation to the front when cached
  // (a generation hit), creates a fresh front generation otherwise
  // (evicting beyond capacity), and ensures at least spec.instances slots
  // exist in it.
  void Prepare(const ScenarioSpec& spec);

  // The geometry of instance `index` under the prepared key; builds into
  // the slot when cold.  The reference stays valid until the slot's
  // generation is evicted (generations are list nodes and slots live in
  // deques, so neither splices nor growth move warm slots).  `built`
  // (optional) reports whether this call sampled the slot fresh (true) or
  // served it warm (false) -- the per-instance cache-hit fact the batch
  // runner's stage breakdown and the obs registry record.
  const ScenarioGeometry& Acquire(const ScenarioSpec& spec, int index,
                                  PairingMode pairing = PairingMode::kAuto,
                                  bool* built = nullptr);

  // Accounting (deterministic in the sequence of Prepare/Acquire calls).
  long long builds() const noexcept { return builds_.load(); }
  long long reuses() const noexcept { return reuses_.load(); }
  // Prepares served by an already-cached generation / generations dropped
  // by LRU pressure.  Mirrored into the obs registry as
  // engine.geometry_generation_hits / engine.geometry_evictions.
  long long generation_hits() const noexcept { return generation_hits_; }
  long long evictions() const noexcept { return evictions_; }

 private:
  struct Slot {
    ScenarioGeometry geometry;
    bool valid = false;
  };
  struct Generation {
    GeometryKey key;
    std::deque<Slot> slots;  // deque: growth never moves warm slots
  };

  void EvictOverCapacity();

  std::list<Generation> generations_;  // front = most recently used
  int capacity_ = 1;
  std::atomic<long long> builds_{0};
  std::atomic<long long> reuses_{0};
  long long generation_hits_ = 0;  // mutated only in Prepare (single-threaded)
  long long evictions_ = 0;
};

// The named scenario presets shared by the batch runner, the CLI and the
// benches: one per deployment family, each with a distinct base seed.
std::vector<ScenarioSpec> BuiltinScenarios();

// Looks a builtin up by name.
std::optional<ScenarioSpec> FindBuiltinScenario(const std::string& name);

}  // namespace decaylib::engine
