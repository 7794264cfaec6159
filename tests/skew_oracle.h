// Edge-by-edge reference for the probe tier's skew reductions.
//
// The monitor, the sampler and metrics::measure_skews all derive their
// node-level quantities from per-cluster clock extremes, which is exact
// only because the augmented graph is cliques joined by complete
// bipartite bundles. This header keeps the direct definitions they are
// checked against: one pass over every undirected edge of the node-level
// adjacency (each visited once, from its lower endpoint), with crashed
// and Byzantine endpoints (columns.correct == 0) excluded — no cluster
// structure assumed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/node_table.h"
#include "exp/topology_graph.h"
#include "obs/histogram.h"

namespace ftgcs::oracle {

struct EdgeSkews {
  double node_local = 0.0;     ///< max |L_v − L_w| over correct edges
  double node_global = 0.0;    ///< max − min over correct nodes
  double intra_cluster = 0.0;  ///< max over correct same-cluster edges
};

inline EdgeSkews scan_edges(const exp::TopologyGraph& graph,
                            const core::SystemColumns& columns) {
  EdgeSkews out;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < graph.adjacency.size(); ++v) {
    if (!columns.correct[v]) continue;
    const double lv = columns.logical[v];
    lo = std::min(lo, lv);
    hi = std::max(hi, lv);
    for (const int w : graph.adjacency[v]) {
      const auto wi = static_cast<std::size_t>(w);
      if (wi <= v || !columns.correct[wi]) continue;
      const double gap = std::abs(lv - columns.logical[wi]);
      out.node_local = std::max(out.node_local, gap);
      if (graph.cluster_of[v] == graph.cluster_of[wi]) {
        out.intra_cluster = std::max(out.intra_cluster, gap);
      }
    }
  }
  if (hi >= lo) out.node_global = hi - lo;
  return out;
}

/// The sampler's histograms filled value by value: one |L_v − L_w| per
/// correct edge into `local`, one L_v − min L per correct node into
/// `global`. Both are cleared first.
inline void fill_histograms(const exp::TopologyGraph& graph,
                            const core::SystemColumns& columns,
                            obs::LogLinearHistogram& local,
                            obs::LogLinearHistogram& global) {
  local.clear();
  global.clear();
  double min_logical = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < graph.adjacency.size(); ++v) {
    if (!columns.correct[v]) continue;
    const double lv = columns.logical[v];
    min_logical = std::min(min_logical, lv);
    for (const int w : graph.adjacency[v]) {
      const auto wi = static_cast<std::size_t>(w);
      if (wi <= v || !columns.correct[wi]) continue;
      local.record(std::fabs(lv - columns.logical[wi]));
    }
  }
  if (!std::isfinite(min_logical)) return;
  for (std::size_t v = 0; v < graph.adjacency.size(); ++v) {
    if (columns.correct[v]) global.record(columns.logical[v] - min_logical);
  }
}

/// Hand-built graphs that are NOT augmented graphs (2 clusters × 2
/// nodes unless noted); the probe tier's constructors must reject each.
inline std::vector<exp::TopologyGraph> non_augmented_graphs() {
  exp::TopologyGraph base;
  base.num_clusters = 2;
  base.cluster_size = 2;
  base.cluster_of = {0, 0, 1, 1};
  std::vector<exp::TopologyGraph> graphs;
  const auto with = [&](std::vector<std::vector<int>> adjacency) {
    exp::TopologyGraph g = base;
    g.adjacency = std::move(adjacency);
    graphs.push_back(std::move(g));
    return &graphs.back();
  };
  with({{1, 3}, {0, 2}, {1, 3}, {0, 2}});           // a 4-cycle
  with({{1, 2, 3}, {0, 2}, {3, 0, 1}, {2, 0}});     // bundle missing 1–3
  with({{1, 2, 3}, {0, 2, 3}, {3}, {2}});           // one-way bundle
  with({{1, 2, 2}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}});  // repeated edge
  with({{0, 2, 3}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}});  // self-loop
  with({{1, 2, 9}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}});  // out of range
  exp::TopologyGraph* relabeled =
      with({{1, 2, 3}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}});
  relabeled->cluster_of = {0, 1, 0, 1};  // ids not laid out c·k + i
  exp::TopologyGraph* short_count =
      with({{1, 2, 3}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}});
  short_count->num_clusters = 3;  // 4 nodes cannot be 3 clusters of 2
  return graphs;
}

}  // namespace ftgcs::oracle
