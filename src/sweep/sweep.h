// Parameter-grid sweeps over the scenario engine.
//
// The paper's experiments are sweeps: capacity, scheduling length and
// feasibility curves as the decay exponent, link count, noise and power
// policy vary.  A SweepSpec describes such an experiment as pure data: one
// base engine::ScenarioSpec plus a list of axes, each naming a sweepable
// spec field and the values it takes.  ExpandGrid unfolds the cross-product
// into a deterministic, row-major grid of cells (the last axis varies
// fastest), each cell being a fully resolved ScenarioSpec whose name
// records its coordinates -- so a cell inherits every determinism guarantee
// of BuildInstance, and the whole grid is reproducible from the SweepSpec
// alone, independent of threads, machines or runs.
//
// The layering follows the kernelization discipline of the related
// H-graph/kernel papers (precompute once, query many times): the expensive
// shared state -- kernel matrix slabs, via sinr::KernelArena -- lives above
// the grid and is reused across every cell (sweep_runner.h), while the
// cells themselves stay pure data.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "engine/batch_runner.h"

namespace decaylib::sweep {

// One axis of the grid: a sweepable ScenarioSpec field plus its values, in
// sweep order.  Integer fields (links, instances) take integral doubles.
struct SweepAxis {
  std::string field;
  std::vector<double> values;
};

// Pure-data description of a parameter-grid experiment.
struct SweepSpec {
  std::string name;
  engine::ScenarioSpec base;
  std::vector<SweepAxis> axes;  // cross-product, last axis fastest
  std::vector<engine::TaskKind> tasks = engine::AllTasks();
};

// The ScenarioSpec fields an axis may name, in canonical order:
// links, instances, alpha, sigma_db, power_tau, beta, noise, zeta,
// lambda, regret_penalty (these two write spec.dynamics), and
// farfield_epsilon (the far-field kernel's switch: 0 = exact, above 0 =
// pooled).
std::vector<std::string> SweepableFields();
bool IsSweepableField(const std::string& field);

// Writes one axis value into the spec.  Rejects an unknown field, a
// non-integral value for an integer field, or an out-of-range value as
// kInvalidArgument (the spec is untouched in that case) -- axis bindings
// are runtime input (CLI flags, sweep files), not programmer state.
core::Status ApplyAxisValue(engine::ScenarioSpec& spec,
                            const std::string& field, double value);

// Full runtime validation of a sweep description: the base spec
// (engine::ValidateScenarioSpec), every axis (known field, non-empty
// values, each value applicable to the base and yielding a valid spec),
// and grid-size representability.  Callers that expand or run a sweep
// built from external input should gate on this; ExpandGrid itself keeps
// DL_CHECK backstops only.
core::Status ValidateSweepSpec(const SweepSpec& spec);

// Canonical "%g" rendering of an axis value, shared by cell names and the
// report/CSV axis columns so they always agree.
std::string FormatAxisValue(double value);

// One resolved grid cell.
struct SweepCell {
  int index = 0;              // flat row-major index
  std::vector<int> coords;    // per-axis value index
  engine::ScenarioSpec spec;  // base with the axis values applied
};

// Number of cells (product of axis lengths; 1 for an axis-free sweep).
long long GridSize(const SweepSpec& spec);

// Unfolds the grid.  Deterministic in the spec; cell specs are named
// "<base>/<field>=<value>,..." so reports and signatures identify cells.
std::vector<SweepCell> ExpandGrid(const SweepSpec& spec);

// Named sweep presets shared by the sweep_runner CLI and the benches.
std::vector<SweepSpec> BuiltinSweeps();
std::optional<SweepSpec> FindBuiltinSweep(const std::string& name);

}  // namespace decaylib::sweep
