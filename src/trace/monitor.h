// Always-on online invariant monitors.
//
// InvariantMonitor keeps running estimates of the quantities the paper
// bounds — node-local skew (per augmented edge), node-global skew,
// intra-cluster skew, and the max-estimate lag M_v − L_v — and checks each
// probe's value against the predicted bound (κ-family local bound,
// c·δ·D global bound, 2ϑ_g·E intra-cluster bound, Lemma C.2 lag
// envelope). The FIRST violating probe is flagged with a replayable
// cursor: simulation time, engine event count, and the byte offset into
// the trace file at which replay would resume (when tracing is on).
//
// The skews come from the cluster-extreme reduction
// (metrics/cluster_extremes.h) that metrics::measure_skews also uses:
// node-local skew is max(intra, max over cluster edges {B, C} of
// max(|hi_B − lo_C|, |hi_C − lo_B|)), which over the augmented graph
// (intra-cluster cliques + complete bipartite bundles) is exactly the
// edge-by-edge maximum. The constructor checks that structure and throws
// std::invalid_argument on any other graph; tests/test_trace_monitor.cpp
// checks the result against an independent edge-by-edge oracle
// (tests/skew_oracle.h) at every probe.
//
// Cost: O(V + E_cluster) per probe, no allocation after the first
// (scratch vectors are reused) — O(1) amortized per simulated event at
// the default probe cadence, which is what lets the monitors default ON.
#pragma once

#include <cstdint>
#include <vector>

#include "core/node_table.h"
#include "exp/topology_graph.h"
#include "metrics/cluster_extremes.h"
#include "sim/time_types.h"

namespace ftgcs::trace {

/// Predicted bounds the monitors check against; a non-positive entry
/// disables that invariant (e.g. m_lag when the global module is off).
struct MonitorBounds {
  double local_skew = 0.0;     ///< core::Params::predicted_local_skew(S)
  double global_skew = 0.0;    ///< core::Params::predicted_global_skew(D)
  double intra_cluster = 0.0;  ///< core::Params::intra_cluster_skew_bound()
  double m_lag = 0.0;          ///< Lemma C.2 envelope for M_v − L_v
};

/// A replayable position in the run: where a violation (or probe) sits in
/// simulated time, in the engine's event stream, and in the trace file.
struct MonitorCursor {
  sim::Time at = 0.0;
  std::uint64_t events = 0;        ///< engine events executed so far
  std::uint64_t trace_records = 0; ///< records committed to the trace
  std::uint64_t trace_offset = 0;  ///< byte offset for replay; 0 = no trace
};

struct Violation {
  const char* invariant = "";  ///< "local_skew" | "global_skew" |
                               ///< "intra_cluster" | "m_lag"
  double value = 0.0;
  double bound = 0.0;
  MonitorCursor cursor;
};

class InvariantMonitor {
 public:
  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t violations = 0;  ///< probe × invariant exceedances
    double max_local_skew = 0.0;
    double max_global_skew = 0.0;
    double max_intra_cluster = 0.0;
    double max_m_lag = 0.0;
    bool has_violation = false;
    Violation first;  ///< valid iff has_violation
  };

  /// Keeps the cluster-level adjacency of the resolved topology (the
  /// monitor outlives probe scratch and must not dangle into the run's
  /// resolution state). Throws std::invalid_argument unless `graph` is an
  /// augmented graph (exp::augmented_cluster_adjacency).
  InvariantMonitor(exp::TopologyGraph graph, MonitorBounds bounds);

  /// One probe: reduces the columnar snapshot (crashed nodes carry
  /// columns.correct == 0 and are excluded from every aggregate, exactly
  /// as the ground-truth measurement excludes them) and checks the skew
  /// bounds against this probe's values.
  void observe(const core::SystemColumns& columns,
               const MonitorCursor& cursor);

  /// Max-estimate lag max_v (M_v(t) − L_v(t)) at the same probe, fed
  /// separately because M_v is only defined with the global module on.
  void observe_m_lag(double max_lag, const MonitorCursor& cursor);

  const Stats& stats() const { return stats_; }
  const MonitorBounds& bounds() const { return bounds_; }

  /// bound − running max; how much headroom survived the run. Meaningless
  /// (returns +inf) when the invariant is disabled.
  double local_margin() const;
  double global_margin() const;
  double intra_margin() const;
  double m_lag_margin() const;

 private:
  void check(const char* invariant, double value, double bound,
             const MonitorCursor& cursor);

  int num_nodes_ = 0;
  int cluster_size_ = 0;
  std::vector<std::vector<int>> cluster_neighbors_;
  MonitorBounds bounds_;
  Stats stats_;
  metrics::ClusterExtremes extremes_;  ///< probe scratch, reused
};

}  // namespace ftgcs::trace
