#include "connectivity/aggregation.h"

#include <algorithm>
#include <limits>

#include "core/check.h"
#include "sinr/kernel.h"
#include "sinr/power.h"

namespace decaylib::connectivity {

AggregationTree BuildAggregationTree(const core::DecaySpace& space,
                                     int sink) {
  const int n = space.size();
  DL_CHECK(sink >= 0 && sink < n, "sink out of range");
  AggregationTree tree;
  tree.sink = sink;
  tree.parent.assign(static_cast<std::size_t>(n), -1);

  // Prim: grow the tree from the sink; attach the outside node whose uplink
  // decay into the tree is smallest.
  std::vector<char> in_tree(static_cast<std::size_t>(n), 0);
  std::vector<double> best_decay(static_cast<std::size_t>(n),
                                 std::numeric_limits<double>::infinity());
  std::vector<int> best_parent(static_cast<std::size_t>(n), -1);
  in_tree[static_cast<std::size_t>(sink)] = 1;
  for (int v = 0; v < n; ++v) {
    if (v == sink) continue;
    best_decay[static_cast<std::size_t>(v)] = space(v, sink);
    best_parent[static_cast<std::size_t>(v)] = sink;
  }
  std::vector<int> attach_order;
  for (int step = 1; step < n; ++step) {
    int pick = -1;
    for (int v = 0; v < n; ++v) {
      if (in_tree[static_cast<std::size_t>(v)]) continue;
      if (pick == -1 || best_decay[static_cast<std::size_t>(v)] <
                            best_decay[static_cast<std::size_t>(pick)]) {
        pick = v;
      }
    }
    in_tree[static_cast<std::size_t>(pick)] = 1;
    tree.parent[static_cast<std::size_t>(pick)] =
        best_parent[static_cast<std::size_t>(pick)];
    tree.total_decay += best_decay[static_cast<std::size_t>(pick)];
    attach_order.push_back(pick);
    for (int v = 0; v < n; ++v) {
      if (in_tree[static_cast<std::size_t>(v)]) continue;
      if (space(v, pick) < best_decay[static_cast<std::size_t>(v)]) {
        best_decay[static_cast<std::size_t>(v)] = space(v, pick);
        best_parent[static_cast<std::size_t>(v)] = pick;
      }
    }
  }
  // Uplinks leaves-first: order nodes by decreasing depth.
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  for (int v : attach_order) {
    depth[static_cast<std::size_t>(v)] =
        1 + depth[static_cast<std::size_t>(
                tree.parent[static_cast<std::size_t>(v)])];
  }
  std::vector<int> nodes = attach_order;
  std::stable_sort(nodes.begin(), nodes.end(), [&](int a, int b) {
    return depth[static_cast<std::size_t>(a)] >
           depth[static_cast<std::size_t>(b)];
  });
  for (int v : nodes) {
    tree.uplinks.push_back({v, tree.parent[static_cast<std::size_t>(v)]});
  }
  return tree;
}

AggregationSchedule ScheduleAggregation(const core::DecaySpace& space,
                                        int sink, sinr::SinrConfig config) {
  AggregationSchedule result;
  result.tree = BuildAggregationTree(space, sink);
  const int n = space.size();

  const sinr::LinkSystem system(space, result.tree.uplinks, config);
  const sinr::KernelCache kernel(system, sinr::UniformPower(system));

  // children_left[v] = number of v's children whose uplink is unscheduled.
  std::vector<int> children_left(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    const int p = result.tree.parent[static_cast<std::size_t>(v)];
    if (p >= 0) ++children_left[static_cast<std::size_t>(p)];
  }
  std::vector<char> done(static_cast<std::size_t>(system.NumLinks()), 0);
  int remaining = system.NumLinks();
  const std::vector<int> decay_order = kernel.OrderByDecay();

  while (remaining > 0) {
    std::vector<int> slot;
    std::vector<int> senders_this_slot;  // node ids transmitting in the slot
    for (int id : decay_order) {
      if (done[static_cast<std::size_t>(id)]) continue;
      const sinr::Link& link = system.link(id);
      if (children_left[static_cast<std::size_t>(link.sender)] > 0) continue;
      // Convergecast: a node cannot send and receive in the same slot, so
      // skip links whose parent is itself transmitting this slot (and links
      // whose sender is some scheduled link's receiver -- impossible here
      // since a node's uplink waits for all children).
      if (std::find(senders_this_slot.begin(), senders_this_slot.end(),
                    link.receiver) != senders_this_slot.end()) {
        continue;
      }
      slot.push_back(id);
      if (kernel.IsFeasible(slot)) {
        senders_this_slot.push_back(link.sender);
      } else {
        slot.pop_back();
      }
    }
    if (slot.empty()) {
      // Serve the shortest ready link alone (always exists: a deepest
      // unscheduled node has no pending children).
      for (int id : decay_order) {
        if (done[static_cast<std::size_t>(id)]) continue;
        const sinr::Link& link = system.link(id);
        if (children_left[static_cast<std::size_t>(link.sender)] == 0) {
          slot.push_back(id);
          break;
        }
      }
      DL_CHECK(!slot.empty(), "no schedulable uplink found");
    }
    for (int id : slot) {
      done[static_cast<std::size_t>(id)] = 1;
      --remaining;
      const sinr::Link& link = system.link(id);
      --children_left[static_cast<std::size_t>(link.receiver)];
    }
    result.schedule.slots.push_back(std::move(slot));
  }
  result.slots = result.schedule.Length();

  // Validate convergecast precedence: replay and check children-before-
  // parent plus per-slot feasibility.
  std::vector<int> pending = children_left;  // all zeros now; rebuild
  for (int v = 0; v < n; ++v) {
    pending[static_cast<std::size_t>(v)] = 0;
  }
  for (int v = 0; v < n; ++v) {
    const int p = result.tree.parent[static_cast<std::size_t>(v)];
    if (p >= 0) ++pending[static_cast<std::size_t>(p)];
  }
  result.convergecast_valid = true;
  for (const auto& slot : result.schedule.slots) {
    if (slot.size() > 1 && !kernel.IsFeasible(slot)) {
      result.convergecast_valid = false;
    }
    for (int id : slot) {
      const sinr::Link& link = system.link(id);
      if (pending[static_cast<std::size_t>(link.sender)] != 0) {
        result.convergecast_valid = false;
      }
    }
    for (int id : slot) {
      const sinr::Link& link = system.link(id);
      --pending[static_cast<std::size_t>(link.receiver)];
    }
  }
  return result;
}

}  // namespace decaylib::connectivity
