#include "metrics/skew_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "metrics/cluster_extremes.h"
#include "support/assert.h"

namespace ftgcs::metrics {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-thread scratch for the cluster reductions, so periodic probes and
/// tight sweep loops do not allocate per sample (SweepRunner workers each
/// get their own copy).
struct Scratch {
  ClusterExtremes extremes;
  std::vector<double> cluster_clock;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

SkewSample measure_skews(const core::SystemColumns& columns,
                         const net::AugmentedTopology& topo) {
  SkewSample out;
  out.at = columns.at;
  FTGCS_EXPECTS(columns.num_nodes() == topo.num_nodes());

  // Cluster clocks L_C = (L⁺ + L⁻)/2 over correct members, plus global
  // node-level extremes — one linear pass over the columns.
  const int clusters = topo.num_clusters();
  Scratch& s = scratch();
  const ClusterExtremes& x = s.extremes;
  reduce_cluster_extremes(columns, topo.cluster_size(), s.extremes);
  out.node_global = x.global_spread();

  s.cluster_clock.assign(static_cast<std::size_t>(clusters), 0.0);
  double cg_lo = kInf;
  double cg_hi = -kInf;
  for (int c = 0; c < clusters; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (x.correct[i] == 0) continue;
    s.cluster_clock[i] = (x.lo[i] + x.hi[i]) / 2.0;
    cg_lo = std::min(cg_lo, s.cluster_clock[i]);
    cg_hi = std::max(cg_hi, s.cluster_clock[i]);
    out.intra_cluster = std::max(out.intra_cluster, x.hi[i] - x.lo[i]);
  }
  out.cluster_global = cg_hi >= cg_lo ? cg_hi - cg_lo : 0.0;

  // Cluster-local skew over E, and node-local skew over augmented edges
  // between correct nodes. Cluster edges are covered by intra-cluster
  // extremes; intercluster edges need the pairwise extremes of adjacent
  // clusters.
  out.node_local = out.intra_cluster;
  const net::Graph& g = topo.cluster_graph();
  for (int b = 0; b < clusters; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (x.correct[bi] == 0) continue;
    for (int c : g.neighbors(b)) {
      const auto ci = static_cast<std::size_t>(c);
      if (c < b || x.correct[ci] == 0) continue;
      out.cluster_local =
          std::max(out.cluster_local,
                   std::abs(s.cluster_clock[bi] - s.cluster_clock[ci]));
      out.node_local = std::max(out.node_local, x.bundle_max(bi, ci));
    }
  }
  return out;
}

SkewSample measure_skews(const core::SystemSnapshot& snapshot,
                         const net::AugmentedTopology& topo) {
  core::SystemColumns columns;
  columns.at = snapshot.at;
  const std::size_t n = snapshot.nodes.size();
  columns.logical.assign(n, 0.0);
  columns.correct.assign(n, 0);
  columns.gamma.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = snapshot.nodes[i];
    columns.correct[i] = node.correct ? 1 : 0;
    columns.logical[i] = node.logical;
    columns.gamma[i] = node.gamma;
  }
  return measure_skews(columns, topo);
}

SkewProbe::SkewProbe(core::FtGcsSystem& system, sim::Duration interval,
                     sim::Time steady_after)
    : system_(system), interval_(interval), steady_after_(steady_after) {
  FTGCS_EXPECTS(interval > 0.0);
  self_ = system.simulator().register_sink(this);
}

void SkewProbe::start() {
  system_.simulator().post_after(interval_, sim::EventKind::kProbe, self_,
                                 {});
}

void SkewProbe::on_event(sim::EventKind kind, const sim::EventPayload&,
                         sim::Time /*now*/) {
  FTGCS_ASSERT(kind == sim::EventKind::kProbe);
  sample_once();
}

namespace {

void fold_max(SkewSample& into, const SkewSample& sample) {
  into.at = sample.at;
  into.node_local = std::max(into.node_local, sample.node_local);
  into.cluster_local = std::max(into.cluster_local, sample.cluster_local);
  into.intra_cluster = std::max(into.intra_cluster, sample.intra_cluster);
  into.node_global = std::max(into.node_global, sample.node_global);
  into.cluster_global = std::max(into.cluster_global, sample.cluster_global);
}

}  // namespace

void SkewProbe::sample_once() {
  system_.snapshot_columns(columns_);
  const SkewSample sample = measure_skews(columns_, system_.topology());
  samples_.push_back(sample);
  fold_max(overall_max_, sample);
  if (sample.at >= steady_after_) {
    fold_max(steady_max_, sample);
    ++steady_samples_;
  }
  system_.simulator().post_after(interval_, sim::EventKind::kProbe, self_,
                                 {});
}

}  // namespace ftgcs::metrics
