#include "trace/monitor.h"

#include <algorithm>
#include <limits>

#include "support/assert.h"

namespace ftgcs::trace {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

InvariantMonitor::InvariantMonitor(exp::TopologyGraph graph,
                                   MonitorBounds bounds)
    : num_nodes_(graph.num_nodes()),
      cluster_size_(graph.cluster_size),
      cluster_neighbors_(exp::augmented_cluster_adjacency(graph)),
      bounds_(bounds) {}

void InvariantMonitor::check(const char* invariant, double value,
                             double bound, const MonitorCursor& cursor) {
  if (bound <= 0.0 || value <= bound) return;
  ++stats_.violations;
  if (!stats_.has_violation) {
    stats_.has_violation = true;
    stats_.first = Violation{invariant, value, bound, cursor};
  }
}

void InvariantMonitor::observe(const core::SystemColumns& columns,
                               const MonitorCursor& cursor) {
  FTGCS_EXPECTS(columns.num_nodes() == num_nodes_);
  ++stats_.probes;

  // Per-cluster extremes over correct nodes. columns.correct is 0 for
  // Byzantine ids AND for crash-stopped nodes, so crashed clocks never
  // enter an aggregate.
  metrics::reduce_cluster_extremes(columns, cluster_size_, extremes_);
  const metrics::ClusterExtremes& x = extremes_;
  const double global_skew = x.global_spread();
  double intra = 0.0;
  for (std::size_t c = 0; c < cluster_neighbors_.size(); ++c) {
    if (x.correct[c] > 0) intra = std::max(intra, x.hi[c] - x.lo[c]);
  }
  // Node-local skew: the cliques give `intra`, each bundle (visited once,
  // from its lower cluster) its extreme cross-cluster pair.
  double local = intra;
  for (std::size_t c = 0; c < cluster_neighbors_.size(); ++c) {
    if (x.correct[c] == 0) continue;
    for (const int b : cluster_neighbors_[c]) {
      const auto bi = static_cast<std::size_t>(b);
      if (bi < c || x.correct[bi] == 0) continue;
      local = std::max(local, x.bundle_max(c, bi));
    }
  }

  stats_.max_local_skew = std::max(stats_.max_local_skew, local);
  stats_.max_global_skew = std::max(stats_.max_global_skew, global_skew);
  stats_.max_intra_cluster = std::max(stats_.max_intra_cluster, intra);

  check("local_skew", local, bounds_.local_skew, cursor);
  check("intra_cluster", intra, bounds_.intra_cluster, cursor);
  check("global_skew", global_skew, bounds_.global_skew, cursor);
}

void InvariantMonitor::observe_m_lag(double max_lag,
                                     const MonitorCursor& cursor) {
  stats_.max_m_lag = std::max(stats_.max_m_lag, max_lag);
  check("m_lag", max_lag, bounds_.m_lag, cursor);
}

double InvariantMonitor::local_margin() const {
  return bounds_.local_skew > 0.0 ? bounds_.local_skew - stats_.max_local_skew
                                  : kInf;
}
double InvariantMonitor::global_margin() const {
  return bounds_.global_skew > 0.0
             ? bounds_.global_skew - stats_.max_global_skew
             : kInf;
}
double InvariantMonitor::intra_margin() const {
  return bounds_.intra_cluster > 0.0
             ? bounds_.intra_cluster - stats_.max_intra_cluster
             : kInf;
}
double InvariantMonitor::m_lag_margin() const {
  return bounds_.m_lag > 0.0 ? bounds_.m_lag - stats_.max_m_lag : kInf;
}

}  // namespace ftgcs::trace
