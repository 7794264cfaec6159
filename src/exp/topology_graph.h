// The resolved physical topology as one reusable value: node-level
// adjacency plus per-edge message-delay bounds.
//
// Before this header, the adjacency and the channel's delay envelope were
// implicit in scenario construction — every consumer (Network wiring,
// partitioners, bound computations) re-derived them from an
// AugmentedTopology and a DelayModel pair. TopologyGraph extracts that
// one-source-of-truth: the shard partitioner reads it to find spatial
// cuts and the conservative lookahead (min over cut edges of the edge's
// MINIMUM delay — the paper's d − u > 0, which is exactly the safe-window
// width a conservative parallel simulator needs), the sharded backend
// sizes its windows from it, and future dynamic-topology scenarios can
// edit it in one place.
//
// Per-edge bounds: the uniform channel (the default) stores just the
// global [min_delay, max_delay] envelope; a heterogeneous DelayModel can
// publish per-directed-edge minima via `edge_min_delay` (parallel to
// `adjacency` positions), which the partitioner prefers when present.
#pragma once

#include <cstdint>
#include <vector>

#include "net/augmented.h"
#include "net/channel.h"

namespace ftgcs::exp {

struct TopologyGraph {
  int num_clusters = 0;
  int cluster_size = 0;  ///< k; node ids are cluster·k + index

  /// Node-level adjacency of the augmented graph (no self-loops; the
  /// network layer adds loopback on broadcast).
  std::vector<std::vector<int>> adjacency;
  /// Owning cluster per node id.
  std::vector<std::int32_t> cluster_of;

  /// Channel delay envelope: every message is in transit for a time in
  /// [min_delay, max_delay] (the paper's [d − u, d]).
  double min_delay = 0.0;
  double max_delay = 0.0;

  /// Optional per-directed-edge minimum delays, parallel to `adjacency`
  /// ([from][position]); empty when the channel is uniform.
  std::vector<std::vector<double>> edge_min_delay;

  int num_nodes() const { return static_cast<int>(adjacency.size()); }

  /// Minimum delay of directed edge (`from` → position `j` in its list).
  double edge_min(int from, std::size_t j) const {
    return edge_min_delay.empty()
               ? min_delay
               : edge_min_delay[static_cast<std::size_t>(from)][j];
  }
};

/// Builds the graph from the resolved augmented topology and the run's
/// delay model (uniform channels leave edge_min_delay empty).
TopologyGraph build_topology_graph(const net::AugmentedTopology& topo,
                                   const net::DelayModel& delays);

/// Cluster-level adjacency of an augmented graph: entry c lists the
/// clusters joined to cluster c by a bundle. Checks that `graph` really is
/// one — node ids c·cluster_size + i with a matching cluster_of, a clique
/// per cluster, a complete bipartite bundle per listed cluster pair, no
/// other edge, symmetric — and throws std::invalid_argument otherwise.
/// The probe tier's cluster-extreme reductions are exact only on such a
/// graph. O(V + E) once.
std::vector<std::vector<int>> augmented_cluster_adjacency(
    const TopologyGraph& graph);

}  // namespace ftgcs::exp
