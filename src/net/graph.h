// Cluster-level graph G = (C, E) from the paper, plus standard topology
// generators used by the experiments. Vertices are 0..n-1; the graph is
// simple and undirected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftgcs::net {

class Graph {
 public:
  explicit Graph(int n);

  int num_vertices() const { return static_cast<int>(adj_.size()); }
  std::size_t num_edges() const { return edge_count_; }

  /// Adds undirected edge {u, v}. Duplicate edges and self-loops are
  /// contract violations.
  void add_edge(int u, int v);

  bool has_edge(int u, int v) const;

  const std::vector<int>& neighbors(int v) const;
  const std::vector<std::vector<int>>& adjacency() const { return adj_; }

  bool connected() const;

  /// Hop diameter (max over all pairs of BFS distance). Requires a
  /// connected graph. O(1) for a graph fresh from one of the deterministic
  /// generators below, which record their closed-form diameter; otherwise
  /// (gnp_connected, hand-built, or any add_edge after generation) an
  /// all-pairs BFS, O(|V|·|E|).
  int diameter() const;

  /// BFS distances from `source`.
  std::vector<int> bfs_distances(int source) const;

  /// BFS parent array rooted at `root` (parent[root] == -1); used by the
  /// tree-sync baselines.
  std::vector<int> bfs_tree(int root) const;

  // ---- generators -------------------------------------------------------

  static Graph line(int n);
  static Graph ring(int n);
  static Graph star(int n);    ///< vertex 0 is the hub
  static Graph clique(int n);
  static Graph grid(int width, int height);
  static Graph torus(int width, int height);
  /// Complete b-ary tree with `depth` levels below the root.
  static Graph balanced_tree(int branching, int depth);
  static Graph hypercube(int dim);
  /// Erdős–Rényi G(n, p) conditioned on connectivity: edges are resampled
  /// (new seed each attempt) until the graph is connected.
  static Graph gnp_connected(int n, double p, std::uint64_t seed);

 private:
  std::vector<std::vector<int>> adj_;
  std::size_t edge_count_ = 0;
  int known_diameter_ = -1;  ///< closed form set by a generator; -1 = unknown
};

}  // namespace ftgcs::net
