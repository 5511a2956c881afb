// Simple undirected graph on dense vertex ids 0..n-1.
//
// Used by the hardness constructions of Theorems 3 and 6 (reductions between
// MAX INDEPENDENT SET and CAPACITY).
#pragma once

#include <span>
#include <vector>

namespace decaylib::graph {

class Graph {
 public:
  explicit Graph(int n);

  int size() const noexcept { return n_; }
  int NumEdges() const noexcept { return num_edges_; }

  void AddEdge(int u, int v);
  bool HasEdge(int u, int v) const noexcept {
    return adj_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                static_cast<std::size_t>(v)];
  }
  int Degree(int v) const noexcept {
    return static_cast<int>(neighbors_[static_cast<std::size_t>(v)].size());
  }
  // Neighbours of v in insertion order.
  std::span<const int> Neighbors(int v) const noexcept {
    return neighbors_[static_cast<std::size_t>(v)];
  }

  // True iff no two vertices of `vs` are adjacent.
  bool IsIndependentSet(std::span<const int> vs) const noexcept;

  // Induced subgraph on `vs` (vertex i of the result is vs[i]).
  Graph InducedSubgraph(std::span<const int> vs) const;

  // Complement graph (no self loops).
  Graph Complement() const;

 private:
  int n_;
  int num_edges_ = 0;
  std::vector<char> adj_;  // dense n x n adjacency (char avoids bitset proxy)
  std::vector<std::vector<int>> neighbors_;
};

struct DegeneracyResult {
  std::vector<int> order;  // vertices in removal order
  int degeneracy = 0;      // max back-degree along the ordering
};

// Smallest-last (degeneracy) ordering: repeatedly remove a minimum-degree
// vertex.  The returned `order` lists vertices so that each has at most
// `degeneracy` neighbours *later* in the order -- the rho-inductive ordering
// of Lemma B.3.
DegeneracyResult DegeneracyOrder(const Graph& g);

}  // namespace decaylib::graph
