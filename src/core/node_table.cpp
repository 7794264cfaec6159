#include "core/node_table.h"

#include <climits>

#include "core/ftgcs_node.h"
#include "net/augmented.h"
#include "support/assert.h"

namespace ftgcs::core {

void NodeTable::build(const net::AugmentedTopology& topo,
                      const std::vector<std::unique_ptr<FtGcsNode>>& nodes) {
  FTGCS_EXPECTS(lanes_.empty());  // built once
  const int n = topo.num_nodes();
  FTGCS_EXPECTS(static_cast<int>(nodes.size()) == n);
  k_ = topo.cluster_size();

  cluster_.resize(static_cast<std::size_t>(n));
  index_in_cluster_.resize(static_cast<std::size_t>(n));
  managed_.assign(static_cast<std::size_t>(n), 0);
  crashed_.assign(static_cast<std::size_t>(n), 0);
  fast_.assign(static_cast<std::size_t>(n), 0);
  // Default floor: drop every level pulse. Correct for null/Byzantine-free
  // destinations without an estimator (their on_pulse ignores kMaxLevel);
  // a destination with its own sink semantics — a Byzantine node — must
  // never be batch-dropped, so its floor goes to INT32_MIN below. Managed
  // nodes with an estimator overwrite the slot via the bound mirror.
  level_floor_.assign(static_cast<std::size_t>(n), INT32_MAX);
  gamma_.assign(static_cast<std::size_t>(n), 0);
  lane_offset_.assign(static_cast<std::size_t>(n) + 1, 0);

  std::size_t total_lanes = 0;
  for (int id = 0; id < n; ++id) {
    cluster_[static_cast<std::size_t>(id)] = topo.cluster_of(id);
    index_in_cluster_[static_cast<std::size_t>(id)] =
        topo.index_in_cluster(id);
    lane_offset_[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(total_lanes);
    if (nodes[static_cast<std::size_t>(id)] != nullptr) {
      total_lanes +=
          1 + topo.cluster_neighbors(topo.cluster_of(id)).size();
    } else {
      // Faulty id: its sink (Byzantine node) keeps full delivery
      // semantics — nothing may be batch-dropped on its behalf.
      level_floor_[static_cast<std::size_t>(id)] = INT32_MIN;
    }
  }
  lane_offset_[static_cast<std::size_t>(n)] =
      static_cast<std::int32_t>(total_lanes);

  // Allocate every lane and arrival slot up front: adoption hands out raw
  // pointers into these vectors, so they must never reallocate again.
  // Quorum windows share the lane index space (one window per observed
  // cluster — the clusters whose members can physically reach the node);
  // their cluster labels are filled alongside the lane labels below.
  lane_cluster_.assign(total_lanes, -1);
  lanes_.assign(total_lanes, ReceiveLane{});
  quorum_windows_.assign(total_lanes, QuorumWindow{});
  if (k_ > ReceiveLane::kInlineArrivals) {
    // Large clusters spill their arrival slots to an external bank; the
    // common k = 3f+1 ≤ 8 lives inside the lanes themselves.
    arrivals_bank_.assign(total_lanes * static_cast<std::size_t>(k_),
                          kUnsetArrival);
  }

  for (int id = 0; id < n; ++id) {
    FtGcsNode* node = nodes[static_cast<std::size_t>(id)].get();
    if (node == nullptr) continue;
    managed_[static_cast<std::size_t>(id)] = 1;
    fast_[static_cast<std::size_t>(id)] = 1;
    std::size_t lane =
        static_cast<std::size_t>(lane_offset_[static_cast<std::size_t>(id)]);
    const auto adopt = [&](ClusterSyncEngine& engine, int observed) {
      lane_cluster_[lane] = observed;
      quorum_windows_[lane].cluster = observed;
      double* external =
          arrivals_bank_.empty()
              ? nullptr
              : arrivals_bank_.data() + lane * static_cast<std::size_t>(k_);
      engine.adopt_lane(&lanes_[lane], external);
      ++lane;
    };
    adopt(node->engine(), topo.cluster_of(id));
    EstimateBank& estimates = node->estimates();
    const std::vector<int>& adjacent = estimates.clusters();
    for (std::size_t j = 0; j < adjacent.size(); ++j) {
      adopt(estimates.replica_at(j), adjacent[j]);
    }
    FTGCS_ASSERT(static_cast<std::int32_t>(lane) ==
                 lane_offset_[static_cast<std::size_t>(id) + 1]);
  }
}

void NodeTable::on_pulse_run(const sim::BatchedEvent* events, std::size_t n) {
  // Three branch-light sweeps over the run instead of one branchy loop per
  // event (runs arrive up to Simulator::kMaxBatch long): decode into flat
  // scratch columns, evaluate every clock mirror in one arithmetic pass,
  // then commit. Each pass touches one kind of
  // memory — payloads, lane headers, arrival slots — so the hardware
  // prefetcher sees three streams instead of one pointer-chasing mix.
  sim::BatchScratch& s = *scratch_;
  s.ensure(n);
  std::int32_t* const lane_col = s.lane.data();
  std::int32_t* const member_col = s.member.data();
  double* const at_col = s.at.data();
  double* const value_col = s.value.data();

  // Pass 1 — decode + filter: resolve each event to a receive lane. Drops
  // (stale/self kMaxLevel, crashed destinations, non-adjacent senders)
  // vanish here; the later passes see only committed receives.
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::EventPayload& p = events[i].payload;
    if (p.d != static_cast<std::uint32_t>(net::PulseKind::kClusterPulse)) {
      continue;  // stale/self kMaxLevel: a pure drop, pre-classified
    }
    const auto sender = static_cast<std::size_t>(p.a);
    const auto dest = static_cast<std::size_t>(p.c);
    if (fast_[dest] == 0) {
      // Crashed destination (the predicate admits every managed dest so
      // classification cannot drift over a run): a pure drop, exactly
      // what the null sink it would otherwise reach does.
      continue;
    }
    const std::int32_t sender_cluster = cluster_[sender];
    std::int32_t lane = lane_offset_[dest];
    const std::int32_t end = lane_offset_[dest + 1];
    FTGCS_ASSERT(lane != end);  // the predicate admits managed nodes only
    if (sender_cluster != lane_cluster_[lane]) {
      // Adjacent-cluster pulse: find the replica lane (degrees are small;
      // the scan mirrors EstimateBank::route_pulse). A pulse from a
      // non-adjacent cluster is dropped, as route_pulse drops it.
      ++lane;
      while (lane != end && lane_cluster_[lane] != sender_cluster) ++lane;
      if (lane == end) continue;
    }
    lane_col[m] = lane;
    member_col[m] = index_in_cluster_[sender];
    at_col[m] = events[i].at;
    ++m;
  }

  // Pass 2 — clock evaluation: one fused multiply-add per event, gathered
  // by lane. The mirrors are constant within a run (they mutate only in
  // slotted timer processing, which breaks runs), so evaluation order is
  // immaterial and the loop has no cross-iteration dependence.
  for (std::size_t i = 0; i < m; ++i) {
    value_col[i] =
        lane_arrival_value(lanes_[static_cast<std::size_t>(lane_col[i])],
                           at_col[i]);
  }

  // Pass 3 — commit: the NaN-sentinel arrival writes and counters, via
  // the same lane_commit the engine-object path executes.
  for (std::size_t i = 0; i < m; ++i) {
    lane_commit(lanes_[static_cast<std::size_t>(lane_col[i])], member_col[i],
                value_col[i]);
  }
}

bool NodeTable::pure_pulse(const sim::EventPayload& payload, const void* ctx) {
  const auto* table = static_cast<const NodeTable*>(ctx);
  const auto dest = static_cast<std::size_t>(payload.c);
  if (payload.d ==
      static_cast<std::uint32_t>(net::PulseKind::kClusterPulse)) {
    // Managed, not fast: the crashed subset is dropped inside
    // on_pulse_run, so the classification keys on the immutable managed_
    // column and a crash never changes it.
    return table->managed_[dest] != 0;
  }
  if (payload.d == static_cast<std::uint32_t>(net::PulseKind::kMaxLevel)) {
    // Self-loopback level pulses carry no news and are dropped on arrival;
    // so are levels below the destination's staleness floor. Both drops
    // are pure. The floor also encodes the endpoints: INT32_MAX for
    // destinations that ignore levels entirely (no estimator, crashed),
    // INT32_MIN for sinks with their own semantics (Byzantine nodes).
    if (table->level_floor_[dest] == INT32_MIN) return false;
    return payload.a == payload.c ||
           payload.b < table->level_floor_[dest];
  }
  return false;
}

void NodeTable::mark_crashed(int node) {
  const auto id = static_cast<std::size_t>(node);
  FTGCS_EXPECTS(managed_[id] != 0);
  crashed_[id] = 1;
  fast_[id] = 0;
  level_floor_[id] = INT32_MAX;
}

void NodeTable::snapshot_columns(sim::Time at, SystemColumns& out) const {
  const std::size_t n = cluster_.size();
  out.at = at;
  out.logical.assign(n, 0.0);
  out.correct.assign(n, 0);
  out.gamma.assign(n, 0);
  for (std::size_t id = 0; id < n; ++id) {
    // A crashed node is a (benign) faulty node: for the rest of the
    // system it is equivalent to removing its links (paper §1/App. A).
    if (managed_[id] == 0 || crashed_[id] != 0) continue;
    const clocks::ClockMirror& clock =
        lanes_[static_cast<std::size_t>(lane_offset_[id])].clock;
    out.correct[id] = 1;
    out.logical[id] = clock.l0 + clock.rate * (at - clock.t0);
    out.gamma[id] = gamma_[id];
  }
}

}  // namespace ftgcs::core
