// Columnar hot-path state of every node in one FT-GCS system.
//
// The 40k-node profile after the ladder-queue engine is dominated by the
// protocol receive path itself: Network → virtual PulseSink::on_pulse →
// FtGcsNode topology lookups → EstimateBank scan → scattered
// ClusterSyncEngine/LogicalClock objects. The per-node state that path
// actually needs is a few words (TRIX-style: cluster id, member index,
// crashed flag, a (l0, t0, rate) clock segment, the current γ, and the
// arrival slots of each observed cluster), so NodeTable stores it as
// parallel arrays indexed by node id and lane:
//
//   * per node id — cluster, index-in-cluster, crashed/fast flags, γ, the
//     kMaxLevel staleness floor, and the node's lane range;
//   * per lane (one per engine: the own ClusterSync engine first, then one
//     passive replica per adjacent cluster, in estimates order) — a
//     ReceiveLane whose arrival slots live in one flat bank.
//
// The engines relocate their hot state INTO the table (adopt_lane) and
// keep the cold path — construction, timers, round transitions, fault
// injection, dynamic edges — so a pulse receive through the table and one
// through FtGcsNode::on_pulse execute the same lane_receive on the same
// words: the two paths are bit-identical by construction.
//
// NodeTable is also the sim-layer batch predicate: it classifies a pulse
// delivery as a pure receive (batchable kClusterPulse, or a droppable
// stale/self kMaxLevel) from these arrays alone, which is what lets the
// simulator drain delivery runs without consulting the receivers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/quorum_window.h"
#include "core/receive_lane.h"
#include "net/network.h"
#include "sim/event.h"
#include "sim/scratch_arena.h"
#include "sim/time_types.h"

namespace ftgcs::net {
class AugmentedTopology;
}

namespace ftgcs::core {

class FtGcsNode;

/// Columnar ground-truth state: one array per field, indexed by node id.
/// Refilling reuses capacity, so periodic probes allocate nothing after the
/// first sample — the metrics layer reads these arrays directly.
struct SystemColumns {
  sim::Time at = 0.0;
  std::vector<double> logical;        ///< L_v(at); 0 for faulty ids
  std::vector<std::uint8_t> correct;  ///< 1 = correct and not crashed
  std::vector<std::int32_t> gamma;    ///< γ_v; 0 for faulty ids

  int num_nodes() const { return static_cast<int>(logical.size()); }
};

class NodeTable final : public net::ClusterPulseTable {
 public:
  NodeTable() = default;
  NodeTable(const NodeTable&) = delete;
  NodeTable& operator=(const NodeTable&) = delete;

  /// Builds the arrays over `topo` and adopts the receive lanes of every
  /// correct node (`nodes[id]` null for faulty ids). Called once by
  /// FtGcsSystem after node construction, before start().
  void build(const net::AugmentedTopology& topo,
             const std::vector<std::unique_ptr<FtGcsNode>>& nodes);

  /// net::ClusterPulseTable — the batched pulse receive: kClusterPulse
  /// events route to a lane, stale/self kMaxLevel events drop in place.
  void on_pulse_run(const sim::BatchedEvent* events, std::size_t n) override;

  /// sim::BatchPredicate (ctx = the NodeTable): pure-receive
  /// classification of one pulse payload. kClusterPulse to a MANAGED
  /// destination is a table receive (on_pulse_run itself drops the
  /// crashed ones — same observable outcome as the null sink, and the
  /// classification stays constant over a run); a kMaxLevel that is
  /// self-addressed or below the destination's staleness floor is a pure
  /// drop. Everything else (Byzantine sinks, non-stale levels) takes the
  /// ordinary per-event path.
  static bool pure_pulse(const sim::EventPayload& payload, const void* ctx);

  /// Borrows the simulator-owned scratch arena for on_pulse_run's decode
  /// columns (see sim/scratch_arena.h). Optional: an unbound table uses a
  /// private arena, so standalone construction (tests) keeps working.
  void bind_scratch(sim::BatchScratch* scratch) {
    scratch_ = scratch != nullptr ? scratch : &own_scratch_;
  }

  /// Crash-stop: marks `node` crashed — the fast flag drops to 0 (its
  /// deliveries fall through to the per-node sink, by then the null sink)
  /// and the level floor saturates (level pulses to it batch-drop).
  void mark_crashed(int node);
  bool crashed(int node) const {
    return crashed_[static_cast<std::size_t>(node)] != 0;
  }

  /// Per-dest batchable flags for Network::set_cluster_dispatch.
  const std::uint8_t* fast_flags() const { return fast_.data(); }

  /// Write-through slot of `node`'s kMaxLevel staleness floor (bound to
  /// its MaxEstimator; stays INT32_MAX — drop everything — without one).
  std::int32_t* level_floor_slot(int node) {
    return &level_floor_[static_cast<std::size_t>(node)];
  }

  /// Mirror of γ_v (written by the node at each round-start decision).
  void set_gamma(int node, int gamma) {
    gamma_[static_cast<std::size_t>(node)] = gamma;
  }

  /// Ground-truth snapshot straight from the arrays: logical clocks from
  /// the lane mirrors (the exact LogicalClock::read arithmetic), γ from
  /// the mirror column, correctness from the managed/crashed flags.
  void snapshot_columns(sim::Time at, SystemColumns& out) const;

  /// Lane span of a managed node: lanes(node)[0] is the own engine,
  /// followed by one replica lane per adjacent cluster in estimates order.
  const ReceiveLane* lanes(int node) const {
    return lanes_.data() + lane_offset_[static_cast<std::size_t>(node)];
  }
  int lane_count(int node) const {
    return lane_offset_[static_cast<std::size_t>(node) + 1] -
           lane_offset_[static_cast<std::size_t>(node)];
  }

  /// kMaxLevel quorum windows of a managed node (MaxEstimator adoption,
  /// see core/quorum_window.h): one pre-labelled window per cluster that
  /// can physically reach the node — its own cluster first, then the
  /// adjacent clusters in estimates order. Parallel to the lane span
  /// (same offsets, same cluster labels), so a shard slice carries the
  /// quorum state in the same flat walk as the receive lanes.
  QuorumWindow* quorum_span(int node) {
    return quorum_windows_.data() +
           lane_offset_[static_cast<std::size_t>(node)];
  }
  int quorum_count(int node) const { return lane_count(node); }

  /// Pins the warmed-up quorum-window capacities: the sliding dense span
  /// (quorum_insert erases at the base and resizes at the tip) drifts by
  /// a stride or two between rounds, so a window that has just slid can
  /// regrow past its old high-water — and a window whose cluster pair
  /// simply had not been heard yet during warmup pays its first-touch
  /// allocation later. ×2 of the warmed capacity with a 16-stride floor
  /// covers both, making steady-state inserts allocation-free
  /// (tests/test_alloc_guard.cpp); Byzantine far-future levels still go
  /// to the sparse overflow list and are exempt from the contract.
  void prewarm() {
    for (QuorumWindow& w : quorum_windows_) {
      w.bits.reserve(std::max(2 * w.bits.capacity(), 16 * w.words));
    }
  }

  int num_nodes() const { return static_cast<int>(cluster_.size()); }

 private:
  int k_ = 0;
  // ---- per node id ----------------------------------------------------------
  std::vector<std::int32_t> cluster_;
  std::vector<std::int32_t> index_in_cluster_;
  std::vector<std::uint8_t> managed_;  ///< has adopted lanes (correct node)
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> fast_;     ///< managed && !crashed
  std::vector<std::int32_t> level_floor_;  ///< kMaxLevel staleness floor
  std::vector<std::int32_t> gamma_;
  std::vector<std::int32_t> lane_offset_;  ///< size num_nodes + 1
  // ---- per lane -------------------------------------------------------------
  std::vector<std::int32_t> lane_cluster_;  ///< observed cluster
  std::vector<ReceiveLane> lanes_;
  std::vector<double> arrivals_bank_;  ///< k slots per lane (NaN = unheard)
  /// kMaxLevel quorum windows, parallel to lanes_ (indexed by the same
  /// lane_offset_ spans; window i counts pulses from lane_cluster_[i]).
  std::vector<QuorumWindow> quorum_windows_;
  // ---- batch scratch --------------------------------------------------------
  sim::BatchScratch own_scratch_;  ///< fallback when no simulator arena bound
  sim::BatchScratch* scratch_ = &own_scratch_;
};

}  // namespace ftgcs::core
