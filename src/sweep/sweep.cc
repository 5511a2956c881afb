#include "sweep/sweep.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "core/check.h"

namespace decaylib::sweep {

namespace {

using core::Status;

struct FieldEntry {
  const char* name;
  Status (*apply)(engine::ScenarioSpec&, double);
  bool integral;
};

Status CheckIntegral(double value, const char* field) {
  if (!(std::isfinite(value) && value == std::floor(value))) {
    return Status::InvalidArgument(std::string(field) +
                                   ": integer sweep field needs an integral "
                                   "value, got " +
                                   FormatAxisValue(value));
  }
  return Status::Ok();
}

const std::vector<FieldEntry>& FieldTable() {
  static const std::vector<FieldEntry> table = {
      {"links",
       [](engine::ScenarioSpec& s, double v) {
         if (Status st = CheckIntegral(v, "links"); !st.ok()) return st;
         if (v < 1.0) {
           return Status::InvalidArgument("links axis values must be >= 1");
         }
         s.links = static_cast<int>(v);
         return Status::Ok();
       },
       true},
      {"instances",
       [](engine::ScenarioSpec& s, double v) {
         if (Status st = CheckIntegral(v, "instances"); !st.ok()) return st;
         if (v < 1.0) {
           return Status::InvalidArgument(
               "instances axis values must be >= 1");
         }
         s.instances = static_cast<int>(v);
         return Status::Ok();
       },
       true},
      {"alpha",
       [](engine::ScenarioSpec& s, double v) {
         s.alpha = v;
         return Status::Ok();
       },
       false},
      {"sigma_db",
       [](engine::ScenarioSpec& s, double v) {
         s.sigma_db = v;
         return Status::Ok();
       },
       false},
      {"power_tau",
       [](engine::ScenarioSpec& s, double v) {
         s.power_tau = v;
         return Status::Ok();
       },
       false},
      {"beta",
       [](engine::ScenarioSpec& s, double v) {
         s.beta = v;
         return Status::Ok();
       },
       false},
      {"noise",
       [](engine::ScenarioSpec& s, double v) {
         s.noise = v;
         return Status::Ok();
       },
       false},
      {"zeta",
       [](engine::ScenarioSpec& s, double v) {
         s.zeta = v;
         return Status::Ok();
       },
       false},
      // Dynamics knobs (TaskKind::kQueue / kRegret).  Both are
      // non-geometric, so a trailing lambda or penalty axis reuses one
      // sampled geometry generation across its whole row.
      {"lambda",
       [](engine::ScenarioSpec& s, double v) {
         if (!(v >= 0.0 && v <= 1.0)) {
           return Status::InvalidArgument(
               "lambda axis values are per-slot Bernoulli probabilities in "
               "[0, 1]");
         }
         s.dynamics.lambda = v;
         return Status::Ok();
       },
       false},
      {"regret_penalty",
       [](engine::ScenarioSpec& s, double v) {
         if (!(v >= 0.0)) {
           return Status::InvalidArgument(
               "regret_penalty axis values must be >= 0");
         }
         s.dynamics.regret_penalty = v;
         return Status::Ok();
       },
       false},
      // The far-field kernel's switch (kernel_mode is set on the base spec):
      // 0 makes every query exact, above 0 pools.  Non-geometric, like
      // the dynamics knobs: an epsilon row reuses one sampled geometry.
      {"farfield_epsilon",
       [](engine::ScenarioSpec& s, double v) {
         if (!(std::isfinite(v) && v >= 0.0)) {
           return Status::InvalidArgument(
               "farfield_epsilon axis values must be >= 0 and finite");
         }
         s.farfield_epsilon = v;
         return Status::Ok();
       },
       false},
  };
  return table;
}

const FieldEntry* FindField(const std::string& field) {
  for (const FieldEntry& entry : FieldTable()) {
    if (field == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::string FormatAxisValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::vector<std::string> SweepableFields() {
  std::vector<std::string> names;
  names.reserve(FieldTable().size());
  for (const FieldEntry& entry : FieldTable()) names.push_back(entry.name);
  return names;
}

bool IsSweepableField(const std::string& field) {
  return FindField(field) != nullptr;
}

core::Status ApplyAxisValue(engine::ScenarioSpec& spec,
                            const std::string& field, double value) {
  const FieldEntry* entry = FindField(field);
  if (entry == nullptr) {
    std::string msg = "unknown sweep field '" + field + "' (sweepable:";
    for (const std::string& name : SweepableFields()) msg += " " + name;
    msg += ")";
    return Status::InvalidArgument(msg);
  }
  return entry->apply(spec, value);
}

core::Status ValidateSweepSpec(const SweepSpec& spec) {
  if (Status st = engine::ValidateScenarioSpec(spec.base); !st.ok()) {
    return Status::InvalidArgument("base spec: " + st.message());
  }
  long long size = 1;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.values.empty()) {
      return Status::InvalidArgument("axis '" + axis.field +
                                     "' needs at least one value");
    }
    for (const double value : axis.values) {
      // Each value must both land in the field and leave a valid spec;
      // applying to a copy of the base catches e.g. beta=0.5 or alpha=-1
      // before a worker ever sees the cell.
      engine::ScenarioSpec probe = spec.base;
      if (Status st = ApplyAxisValue(probe, axis.field, value); !st.ok()) {
        return st;
      }
      if (Status st = engine::ValidateScenarioSpec(probe); !st.ok()) {
        return Status::InvalidArgument("axis '" + axis.field +
                                       "' value " + FormatAxisValue(value) +
                                       ": " + st.message());
      }
    }
    size *= static_cast<long long>(axis.values.size());
    if (size > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          "sweep grid exceeds the flat cell-index range");
    }
  }
  return Status::Ok();
}

long long GridSize(const SweepSpec& spec) {
  long long size = 1;
  for (const SweepAxis& axis : spec.axes) {
    DL_CHECK(!axis.values.empty(), "sweep axis needs at least one value");
    size *= static_cast<long long>(axis.values.size());
    // SweepCell::index is an int; keep the flat index representable.
    DL_CHECK(size <= std::numeric_limits<int>::max(),
             "sweep grid exceeds the flat cell-index range");
  }
  return size;
}

std::vector<SweepCell> ExpandGrid(const SweepSpec& spec) {
  for (const SweepAxis& axis : spec.axes) {
    DL_CHECK(IsSweepableField(axis.field), "unknown sweep axis field");
    DL_CHECK(!axis.values.empty(), "sweep axis needs at least one value");
  }
  const long long size = GridSize(spec);
  const std::size_t rank = spec.axes.size();

  std::vector<SweepCell> cells;
  cells.reserve(static_cast<std::size_t>(size));
  std::vector<int> coords(rank, 0);
  for (long long index = 0; index < size; ++index) {
    SweepCell cell;
    cell.index = static_cast<int>(index);
    cell.coords = coords;
    cell.spec = spec.base;
    std::string suffix;
    for (std::size_t a = 0; a < rank; ++a) {
      const SweepAxis& axis = spec.axes[a];
      const double value =
          axis.values[static_cast<std::size_t>(coords[a])];
      const core::Status applied = ApplyAxisValue(cell.spec, axis.field, value);
      // Callers gate external input through ValidateSweepSpec; by the time
      // a grid expands, a bad binding is a programmer error.
      DL_CHECK(applied.ok(), "ExpandGrid: invalid axis binding");
      suffix +=
          (a == 0 ? "/" : ",") + axis.field + "=" + FormatAxisValue(value);
    }
    cell.spec.name = spec.base.name + suffix;
    cells.push_back(std::move(cell));

    // Row-major odometer: the last axis varies fastest.
    for (std::size_t a = rank; a-- > 0;) {
      if (++coords[a] < static_cast<int>(spec.axes[a].values.size())) break;
      coords[a] = 0;
    }
  }
  return cells;
}

std::vector<SweepSpec> BuiltinSweeps() {
  std::vector<SweepSpec> sweeps;

  // The paper's headline curve: capacity and schedule length as the decay
  // exponent hardens, at two deployment sizes.
  {
    SweepSpec sweep;
    sweep.name = "capacity_vs_alpha";
    sweep.base.name = "capacity_vs_alpha";
    sweep.base.topology = "uniform";
    sweep.base.links = 32;
    sweep.base.instances = 4;
    sweep.base.seed = 1101;
    sweep.axes = {{"links", {24, 48}}, {"alpha", {2.5, 3.0, 3.5, 4.0}}};
    sweeps.push_back(std::move(sweep));
  }

  // The Theorem 3/6 question made a chart: how much capacity does arbitrary
  // power control buy over uniform power, as the oblivious power policy and
  // the decay exponent vary.
  {
    SweepSpec sweep;
    sweep.name = "power_control_gap";
    sweep.base.name = "power_control_gap";
    sweep.base.topology = "uniform";
    sweep.base.links = 32;
    sweep.base.instances = 4;
    sweep.base.seed = 2202;
    // Geometry axis (alpha) outermost, power policy fastest: the whole
    // power_tau row of a cell reuses one sampled geometry (GeometryCache).
    sweep.axes = {{"alpha", {2.5, 3.5}}, {"power_tau", {0.0, 0.5, 1.0}}};
    sweep.tasks = {engine::TaskKind::kAlgorithm1,
                   engine::TaskKind::kGreedyBaseline,
                   engine::TaskKind::kPowerControl};
    sweeps.push_back(std::move(sweep));
  }

  // Robustness frontier: feasibility under growing ambient noise and
  // shadowing spread (clustered layout, where hotspots concentrate
  // interference).
  {
    SweepSpec sweep;
    sweep.name = "noise_frontier";
    sweep.base.name = "noise_frontier";
    sweep.base.topology = "clustered";
    sweep.base.links = 32;
    sweep.base.instances = 4;
    sweep.base.zeta = 4.0;  // headroom for the shadowed cells
    sweep.base.seed = 3303;
    // Shadowing spread re-samples geometry, noise does not; keeping noise
    // fastest lets each sigma_db row share its sampled instances.
    sweep.axes = {{"sigma_db", {0.0, 6.0}}, {"noise", {0.0, 0.01, 0.05}}};
    sweeps.push_back(std::move(sweep));
  }

  // The stability region made a chart: queue throughput and the backlog-
  // growth instability indicator as the per-link arrival rate climbs, at
  // two decay exponents, with the regret game's tail successes alongside
  // (the transfer line's [2, 3, 44] + Asgeirsson-Mitra, over cached
  // kernels).  Capacity context comes from the greedy baseline.
  {
    SweepSpec sweep;
    sweep.name = "stability_region";
    sweep.base.name = "stability_region";
    sweep.base.topology = "uniform";
    sweep.base.links = 24;
    sweep.base.instances = 4;
    sweep.base.seed = 4404;
    sweep.base.dynamics.queue_slots = 600;
    sweep.base.dynamics.regret_rounds = 600;
    // Geometry axis (alpha) outermost, lambda fastest: the whole arrival-
    // rate row of a cell reuses one sampled geometry (GeometryCache).
    sweep.axes = {{"alpha", {2.5, 3.5}},
                  {"lambda", {0.02, 0.05, 0.1, 0.2, 0.4}}};
    sweep.tasks = {engine::TaskKind::kGreedyBaseline, engine::TaskKind::kQueue,
                   engine::TaskKind::kRegret};
    sweeps.push_back(std::move(sweep));
  }

  return sweeps;
}

std::optional<SweepSpec> FindBuiltinSweep(const std::string& name) {
  for (SweepSpec& sweep : BuiltinSweeps()) {
    if (sweep.name == name) return std::move(sweep);
  }
  return std::nullopt;
}

}  // namespace decaylib::sweep
