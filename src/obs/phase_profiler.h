// PhaseProfiler: the nondeterministic sidecar plane (PATH.profile).
//
// Two kinds of rows, both kept strictly OUT of the deterministic series:
//
//   * "diag" rows — per-probe queue-tier counters (every field of
//     TierStats::each_field under its own name, plus entry_bytes) and
//     per-shard mailbox depth / cut-edge traffic. These are
//     deterministic for a fixed configuration but DEPEND on the shard
//     count (each shard's queue sees its own narrow/wide mix, mailbox
//     depth differs by T), so they can never live in the file that is
//     byte-compared across shard counts.
//   * "phase"/"span"/"summary" rows — wall-clock timing: per-shard
//     accumulated merge ∥ run ∥ collect(wait) phase totals around the
//     three-barrier windows of par::ShardedFtGcsSystem, top-level
//     setup/run/collect spans, and the load-imbalance ratio
//     (max/mean per-shard run-phase time) the work-stealing ROADMAP
//     item needs as its baseline.
//
// This header deliberately contains no clock types: timestamps cross the
// API as uint64 nanoseconds and the only wall-clock reads in src/obs/
// live in phase_profiler.cpp — the single sanctioned site the
// determinism lint's obs clock ban carves out (see
// scripts/lint/ftgcs_lint.py and its fixtures).
//
// Threading: phase_begin/phase_end are called by shard workers on their
// own shard slot only (the slots are cache-line separated); the driver
// reads totals after the workers park at a barrier or join, so the
// barrier's happens-before covers the unsynchronized accumulators —
// the same discipline the mailbox lanes use.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace ftgcs::obs {

/// Per-shard cross-window diagnostics snapshot for one "diag" row.
struct ShardWindowDiag {
  std::uint64_t routed = 0;        ///< cut-edge messages delivered INTO
                                   ///< this shard so far
  std::uint64_t mailbox_peak = 0;  ///< deepest single-barrier merge
  std::uint64_t fired = 0;         ///< events fired by this shard's sim
};

class PhaseProfiler {
 public:
  enum class Phase { kMerge = 0, kRun = 1, kCollect = 2 };

  /// Opens `path` and writes the sidecar header row.
  explicit PhaseProfiler(const std::string& path);
  ~PhaseProfiler();

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Sizes the per-shard slots; call before workers start (re-binding
  /// resets the accumulators).
  void bind_shards(int shards);

  /// Worker-side phase timers (shard in [0, shards)). kMerge covers
  /// mailbox drain + cross-shard posts, kRun covers run_until, kCollect
  /// covers the finish-barrier wait — idle time that IS the imbalance.
  void phase_begin(int shard, Phase phase);
  void phase_end(int shard, Phase phase);

  /// Counts one safe window against the shard (call once per window).
  void count_window(int shard);

  /// Driver-side top-level spans ("setup", "run", "collect"); at most
  /// kMaxSpans distinct names, nesting by name.
  void span_begin(const char* name);
  void span_end(const char* name);

  /// Appends one "diag" row (driver-side, at a quiesced probe boundary).
  void probe_diag(double at, const sim::EventQueue::TierStats& tiers,
                  const std::vector<ShardWindowDiag>& shards);

  /// Writes the "phase"/"summary"/"span" rows and closes the file
  /// (idempotent). Throws std::runtime_error naming the path on a short
  /// write or a failed flush; the dtor closes an unfinished file without
  /// checking. Call after workers joined.
  void finish();

  /// max/mean per-shard run-phase time; 0 until >= 1 shard has run time.
  double imbalance() const;

  struct PhaseTotals {
    double merge_ms = 0.0;
    double run_ms = 0.0;
    double collect_ms = 0.0;
  };
  /// Summed over shards (driver-side, after workers parked).
  PhaseTotals totals() const;

  int shards() const { return static_cast<int>(slots_.size()); }

 private:
  static constexpr int kNumPhases = 3;
  static constexpr int kMaxSpans = 8;

  struct alignas(64) ShardSlot {
    std::uint64_t start_ns[kNumPhases] = {0, 0, 0};
    std::uint64_t total_ns[kNumPhases] = {0, 0, 0};
    std::uint64_t windows = 0;
  };

  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t total_ns = 0;
  };

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<ShardSlot> slots_;
  Span spans_[kMaxSpans];
  int num_spans_ = 0;
  std::string line_;  ///< reused row buffer (nondet plane: no alloc pin)
};

}  // namespace ftgcs::obs
