// The admission loops of the capacity and scheduling layers, written once
// over either kernel backend.  AdmissionKernel names what a backend
// provides; every capacity and scheduling entry point that runs on both
// backends (RunAlgorithm1, GreedyFeasible, ScheduleLinks, ValidateSchedule)
// is one template constrained by it.
//
// Every loop here runs against a kernel and the accumulator of its role.
// Backend<Kernel> names two:
//   * Feasibility -- members, Contains, Add, CanAddFeasibly: the
//     admit-while-feasible loops (dense: FeasibilityAccumulator, raw
//     in-sums only);
//   * Budget -- members, Contains, Add, BudgetWithinHalf, InWithinOne: the
//     1/2-budget loop (dense: AffectanceAccumulator, clamped in/out-sums);
// plus the separation test against a Budget's members (built once per
// run).  The matrix-free FarFieldKernel's FarFieldAccumulator plays both
// roles and decides every test as the dense accumulators do (farfield.h
// spells out the certification), so one loop gives both backends the same
// decisions.
//
//   * DecayOrder: candidates by non-decreasing f_vv, ties by list order.
//   * AdmitWhileFeasible: admit each link of an order while the set stays
//     feasible -- GreedyFeasible (decay order), RandomFeasible (shuffled),
//     WeightedGreedy (density order).
//   * HalfBudgetAdmission: admit when a_v(X) + a_X(v) <= 1/2, optionally
//     only zeta/2-separated links, then keep a_X(v) <= 1 -- Algorithm 1 and
//     WeightedAlgorithm1 with separation, GreedyHalfAffectance without.
//   * ScheduleByExtraction: repeated extraction until every candidate has a
//     slot; an empty extraction schedules the shortest remaining link alone.
//   * ValidateSlots: every multi-link slot feasible, and the slots partition
//     the candidates.
#pragma once

#include <algorithm>
#include <concepts>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/check.h"
#include "sinr/link_system.h"

namespace decaylib::sinr {

// Result of the 1/2-budget loop: X and the Markov-filtered S of Algorithm 1.
struct AdmissionResult {
  std::vector<int> selected;  // S, the returned feasible set
  std::vector<int> admitted;  // X, before the final affectance filter
};

// A partition of links into transmission slots.
struct SlotSchedule {
  std::vector<std::vector<int>> slots;
  int Length() const noexcept { return static_cast<int>(slots.size()); }
};

// Per-backend pieces, specialised next to each accumulator (kernel.h,
// farfield.h):
//   using Feasibility = ...;   // the two roles above
//   using Budget = ...;
//   class Separation {         // built once per run
//     Separation(const Kernel&, double eta, double zeta);
//     bool FromMembers(const Budget&, int v) const;
//   };
// plus an IsFeasibleSet(kernel, S) overload for slot validation.
template <class Kernel>
struct Backend;

// A kernel the loops below run on: per-link decay and noise queries, the
// accumulator roles of its Backend, and IsFeasibleSet.
template <class Kernel>
concept AdmissionKernel = requires(const Kernel& kernel, int v,
                                   std::span<const int> S) {
  typename Backend<Kernel>::Feasibility;
  typename Backend<Kernel>::Budget;
  typename Backend<Kernel>::Separation;
  { kernel.NumLinks() } -> std::convertible_to<int>;
  { kernel.LinkDecay(v) } -> std::convertible_to<double>;
  { kernel.CanOvercomeNoise(v) } -> std::convertible_to<bool>;
  { IsFeasibleSet(kernel, S) } -> std::convertible_to<bool>;
};

// Works on anything with LinkDecay (LinkSystem too).
template <class Kernel>
std::vector<int> DecayOrder(const Kernel& kernel,
                            std::span<const int> candidates) {
  std::vector<int> order(candidates.begin(), candidates.end());
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return kernel.LinkDecay(a) < kernel.LinkDecay(b);
  });
  return order;
}

// The accumulator check reproduces, bit for bit, the naive
// push-IsFeasible-pop loop: in-affectance sums accumulate in admission
// order, and the candidate's own row adds a trailing 0.  This form admits
// into a caller-owned accumulator, on top of the members it already holds,
// so a caller can resume an admission (the auction's critical bid) or
// reuse one accumulator across rounds (the queue's slots).
template <class Kernel>
void AdmitWhileFeasible(const Kernel& kernel, std::span<const int> order,
                        typename Backend<Kernel>::Feasibility& acc) {
  for (int v : order) {
    if (acc.Contains(v)) continue;  // duplicate candidate ids admit once
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (acc.CanAddFeasibly(v)) acc.Add(v);
  }
}

template <class Kernel>
std::vector<int> AdmitWhileFeasible(const Kernel& kernel,
                                    std::span<const int> order) {
  typename Backend<Kernel>::Feasibility acc(kernel);
  AdmitWhileFeasible(kernel, order, acc);
  return acc.members();
}

// With a zeta, a link must also be zeta/2-separated from X.  The final
// filter keeps a member when its clamped a_X(v), summed in admission order
// (the order the naive path sums it in), is at most 1.
template <class Kernel>
AdmissionResult HalfBudgetAdmission(const Kernel& kernel,
                                    std::span<const int> order,
                                    std::optional<double> zeta) {
  using Separation = typename Backend<Kernel>::Separation;
  std::optional<Separation> separation;
  if (zeta) {
    DL_CHECK(*zeta > 0.0, "zeta must be positive");
    separation.emplace(kernel, *zeta / 2.0, *zeta);
  }
  typename Backend<Kernel>::Budget acc(kernel);
  for (int v : order) {
    // A candidate listed twice is admitted at most once (the naive
    // reference would duplicate it in X on such degenerate input).
    if (acc.Contains(v)) continue;
    if (!kernel.CanOvercomeNoise(v)) continue;
    if (separation && !separation->FromMembers(acc, v)) continue;
    if (acc.BudgetWithinHalf(v)) acc.Add(v);
  }
  AdmissionResult result;
  result.admitted = acc.members();
  for (int v : result.admitted) {
    if (acc.InWithinOne(v)) result.selected.push_back(v);
  }
  return result;
}

// `extract(remaining)` returns the next slot (a subset of remaining).
template <class Kernel, class Extract>
SlotSchedule ScheduleByExtraction(const Kernel& kernel,
                                  std::span<const int> candidates,
                                  Extract&& extract) {
  SlotSchedule schedule;
  std::vector<int> remaining(candidates.begin(), candidates.end());
  while (!remaining.empty()) {
    std::vector<int> slot = extract(std::span<const int>(remaining));
    if (slot.empty()) {
      // Fall back to scheduling the shortest remaining link alone so the
      // schedule always completes (e.g. links that fail noise-margin tests
      // inside the extractor still occupy a slot of their own).
      const auto shortest = std::min_element(
          remaining.begin(), remaining.end(), [&](int a, int b) {
            return kernel.LinkDecay(a) < kernel.LinkDecay(b);
          });
      slot.push_back(*shortest);
    }
    std::set<int> scheduled(slot.begin(), slot.end());
    std::vector<int> rest;
    rest.reserve(remaining.size() - slot.size());
    for (int v : remaining) {
      if (scheduled.find(v) == scheduled.end()) rest.push_back(v);
    }
    remaining.swap(rest);
    schedule.slots.push_back(std::move(slot));
  }
  return schedule;
}

// Slots and candidates compare as multisets.
template <class Kernel>
bool ValidateSlots(const Kernel& kernel, const SlotSchedule& schedule,
                   std::span<const int> candidates) {
  std::multiset<int> scheduled;
  for (const auto& slot : schedule.slots) {
    if (slot.size() > 1 && !IsFeasibleSet(kernel, slot)) return false;
    scheduled.insert(slot.begin(), slot.end());
  }
  std::multiset<int> wanted(candidates.begin(), candidates.end());
  return scheduled == wanted;
}

}  // namespace decaylib::sinr
