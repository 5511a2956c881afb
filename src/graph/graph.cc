#include "graph/graph.h"

#include <algorithm>

#include "core/check.h"

namespace decaylib::graph {

Graph::Graph(int n) : n_(n) {
  DL_CHECK(n >= 0, "negative vertex count");
  adj_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  neighbors_.resize(static_cast<std::size_t>(n));
}

void Graph::AddEdge(int u, int v) {
  DL_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_, "vertex out of range");
  DL_CHECK(u != v, "self loops are not allowed");
  if (HasEdge(u, v)) return;
  adj_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
       static_cast<std::size_t>(v)] = 1;
  adj_[static_cast<std::size_t>(v) * static_cast<std::size_t>(n_) +
       static_cast<std::size_t>(u)] = 1;
  neighbors_[static_cast<std::size_t>(u)].push_back(v);
  neighbors_[static_cast<std::size_t>(v)].push_back(u);
  ++num_edges_;
}

bool Graph::IsIndependentSet(std::span<const int> vs) const noexcept {
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t j = i + 1; j < vs.size(); ++j) {
      if (HasEdge(vs[i], vs[j])) return false;
    }
  }
  return true;
}

Graph Graph::InducedSubgraph(std::span<const int> vs) const {
  Graph sub(static_cast<int>(vs.size()));
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t j = i + 1; j < vs.size(); ++j) {
      if (HasEdge(vs[i], vs[j])) {
        sub.AddEdge(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return sub;
}

Graph Graph::Complement() const {
  Graph comp(n_);
  for (int u = 0; u < n_; ++u) {
    for (int v = u + 1; v < n_; ++v) {
      if (!HasEdge(u, v)) comp.AddEdge(u, v);
    }
  }
  return comp;
}

DegeneracyResult DegeneracyOrder(const Graph& g) {
  const int n = g.size();
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  std::vector<char> removed(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) degree[static_cast<std::size_t>(v)] = g.Degree(v);
  DegeneracyResult result;
  result.order.reserve(static_cast<std::size_t>(n));
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (removed[static_cast<std::size_t>(v)]) continue;
      if (best == -1 || degree[static_cast<std::size_t>(v)] <
                            degree[static_cast<std::size_t>(best)]) {
        best = v;
      }
    }
    result.degeneracy =
        std::max(result.degeneracy, degree[static_cast<std::size_t>(best)]);
    result.order.push_back(best);
    removed[static_cast<std::size_t>(best)] = 1;
    for (int u : g.Neighbors(best)) {
      if (!removed[static_cast<std::size_t>(u)]) {
        --degree[static_cast<std::size_t>(u)];
      }
    }
  }
  return result;
}

}  // namespace decaylib::graph
