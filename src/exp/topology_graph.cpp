#include "exp/topology_graph.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace ftgcs::exp {

TopologyGraph build_topology_graph(const net::AugmentedTopology& topo,
                                   const net::DelayModel& delays) {
  TopologyGraph graph;
  graph.num_clusters = topo.num_clusters();
  graph.cluster_size = topo.cluster_size();
  graph.adjacency = topo.adjacency();
  graph.cluster_of.reserve(static_cast<std::size_t>(topo.num_nodes()));
  for (int id = 0; id < topo.num_nodes(); ++id) {
    graph.cluster_of.push_back(topo.cluster_of(id));
  }
  graph.min_delay = delays.min_delay();
  graph.max_delay = delays.max_delay();
  // All in-tree DelayModels are uniform envelopes today; a heterogeneous
  // model would fill edge_min_delay here (one vector per source, parallel
  // to adjacency positions).
  return graph;
}

namespace {

/// Throws std::invalid_argument for a graph augmented_cluster_adjacency
/// rejects; `format` takes up to three integers.
[[noreturn]] void reject(const char* format, long long a, long long b,
                         long long c = 0) {
  char why[128];
  std::snprintf(why, sizeof why, format, a, b, c);
  throw std::invalid_argument(
      std::string("topology is not an augmented graph (cluster cliques "
                  "joined by complete bipartite bundles): ") + why);
}

}  // namespace

std::vector<std::vector<int>> augmented_cluster_adjacency(
    const TopologyGraph& graph) {
  const int k = graph.cluster_size;
  const int clusters = graph.num_clusters;
  const int n = graph.num_nodes();
  if (k < 1 || clusters < 0 || static_cast<long long>(clusters) * k != n ||
      graph.cluster_of.size() != static_cast<std::size_t>(n)) {
    reject("%lld nodes do not form %lld clusters of %lld", n, clusters, k);
  }
  for (int id = 0; id < n; ++id) {
    if (graph.cluster_of[static_cast<std::size_t>(id)] != id / k) {
      reject("node %lld is not in cluster %lld", id, id / k);
    }
  }

  std::vector<std::vector<int>> neighbors(static_cast<std::size_t>(clusters));
  std::vector<int> cluster_mark(static_cast<std::size_t>(clusters), -1);
  std::vector<int> node_mark(static_cast<std::size_t>(n), -1);
  for (int c = 0; c < clusters; ++c) {
    // The bundles of c are the foreign clusters its first member sees.
    std::vector<int>& mine = neighbors[static_cast<std::size_t>(c)];
    cluster_mark[static_cast<std::size_t>(c)] = c;
    for (int w : graph.adjacency[static_cast<std::size_t>(c) * k]) {
      if (w < 0 || w >= n) reject("node %lld lists node %lld", c * k, w);
      const int b = w / k;
      if (cluster_mark[static_cast<std::size_t>(b)] != c) {
        cluster_mark[static_cast<std::size_t>(b)] = c;
        mine.push_back(b);
      }
    }
    // Every member must see exactly its k − 1 peers and all k members of
    // each of those clusters: distinct, in-bounds, none outside them.
    const std::size_t degree = static_cast<std::size_t>(k - 1) +
                               static_cast<std::size_t>(k) * mine.size();
    for (int v = c * k; v < (c + 1) * k; ++v) {
      const auto& row = graph.adjacency[static_cast<std::size_t>(v)];
      if (row.size() != degree) {
        reject("node %lld has degree %lld, expected %lld", v,
               static_cast<long long>(row.size()),
               static_cast<long long>(degree));
      }
      for (int w : row) {
        if (w < 0 || w >= n || w == v ||
            node_mark[static_cast<std::size_t>(w)] == v ||
            cluster_mark[static_cast<std::size_t>(w / k)] != c) {
          reject("node %lld has a stray or repeated edge to node %lld", v, w);
        }
        node_mark[static_cast<std::size_t>(w)] = v;
      }
    }
  }

  std::vector<std::vector<int>> sorted = neighbors;
  for (auto& row : sorted) std::sort(row.begin(), row.end());
  for (int c = 0; c < clusters; ++c) {
    for (int b : neighbors[static_cast<std::size_t>(c)]) {
      const auto& back = sorted[static_cast<std::size_t>(b)];
      if (!std::binary_search(back.begin(), back.end(), c)) {
        reject("cluster %lld is joined to cluster %lld but not back", c, b);
      }
    }
  }
  return neighbors;
}

}  // namespace ftgcs::exp
