// Per-cluster extremes of the correct logical clocks: the one reduction
// behind every node-level skew a probe reports.
//
// The augmented graph makes each cluster a clique of k copies (node ids
// c·k + i) and joins adjacent clusters by complete bipartite bundles, so
// the node pairs an augmented edge joins are exactly: two correct members
// of one cluster, or one correct member each of two adjacent clusters.
// IEEE-754 subtraction rounds monotonically in each argument, so over such
// a pair set the extreme |L_v − L_w| is a difference of the two clusters'
// min/max clocks — the same double an edge-by-edge scan would find, and
// attained by a real pair. Node-local, node-global and intra-cluster skew
// therefore all follow from lo_c/hi_c in O(V + E_cluster).
//
// metrics::measure_skews, trace::InvariantMonitor and obs::ProbeSampler
// all reduce through reduce_cluster_extremes(); tests/skew_oracle.h keeps
// the independent edge-by-edge scan they are checked against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/node_table.h"

namespace ftgcs::metrics {

struct ClusterExtremes {
  std::vector<double> lo;             ///< min correct L_v; +inf if none
  std::vector<double> hi;             ///< max correct L_v; −inf if none
  std::vector<std::int32_t> correct;  ///< correct members per cluster
  double global_lo = 0.0;             ///< min over all correct; +inf if none
  double global_hi = 0.0;             ///< max over all correct; −inf if none

  /// Node-global skew: spread of the correct ensemble (0 if empty).
  double global_spread() const {
    return global_hi >= global_lo ? global_hi - global_lo : 0.0;
  }

  /// Largest |L_v − L_w| over the bundle between clusters b and c (both
  /// with a correct member); attained by a real pair.
  double bundle_max(std::size_t b, std::size_t c) const {
    return std::max(std::abs(hi[b] - lo[c]), std::abs(hi[c] - lo[b]));
  }

  /// A lower bound on every |L_v − L_w| over that bundle.
  double bundle_min(std::size_t b, std::size_t c) const {
    return std::max(0.0, std::max(lo[c] - hi[b], lo[b] - hi[c]));
  }
};

/// Fills `out` from one columnar snapshot whose node ids are laid out as
/// c·cluster_size + i (crashed and Byzantine ids carry correct == 0 and
/// are excluded). Reuses `out`'s capacity: no allocation after the first
/// call for a given cluster count.
void reduce_cluster_extremes(const core::SystemColumns& columns,
                             int cluster_size, ClusterExtremes& out);

}  // namespace ftgcs::metrics
