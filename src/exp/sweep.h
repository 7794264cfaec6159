// Parallel sweep execution.
//
// SweepRunner expands a ScenarioSpec's axis grid × seed list into a flat
// task list (row-major over axes, seeds innermost), fans the tasks out over
// a std::thread pool, and collects the results back into grid order.
//
// Determinism: every task owns an independent Simulator (and RNG streams
// derived only from the task's seed), and each result lands in a pre-sized
// slot indexed by its task id — so the output is bit-identical at any
// thread count, which tests/test_exp_runner.cpp enforces.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "exp/run.h"
#include "exp/scenario.h"

namespace ftgcs::exp {

struct SweepResult {
  std::string scenario;
  /// Column names for the axis part of each row ("seed" included when rows
  /// are per-seed and more than one seed ran).
  std::vector<std::string> axis_names;
  /// Metric names the table sink prints (the scenario's `columns`, or every
  /// metric when the scenario did not choose).
  std::vector<std::string> columns;
  std::vector<RunResult> rows;  ///< grid order, independent of thread count

  /// Wall-clock measurements. Populated per row only when
  /// SweepOptions::timing is set (timing is machine-dependent, so it is
  /// kept out of the deterministic metric schema); totals are always
  /// filled. events_per_sec relates the row's simulated "events" metric to
  /// its wall time.
  struct RowTiming {
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
  };
  std::vector<RowTiming> timing;  ///< parallel to rows; empty if disabled
  double total_wall_ms = 0.0;     ///< sum of task wall times
  double total_events = 0.0;      ///< sum of simulated events over tasks

  /// Each RunResult diagnostics struct merged over tasks through its
  /// each_field() list (support::merge_stats). Deterministic except
  /// `profile`; reported in the `--timing` footer and never mixed into the
  /// metric tables. `shard` stays default (shards 0) when no task ran
  /// sharded.
  sim::EventQueue::TierStats queue;
  par::ShardedFtGcsSystem::ShardStats shard;
  RunResult::TraceInfo trace;
  RunResult::SeriesInfo series;
  RunResult::ProfileInfo profile;  ///< wall clock

  /// Online invariant-monitor aggregates over tasks — maxima for observed
  /// skews, minima for bound margins (how close the worst task came to its
  /// bound; +inf when that invariant was disabled in every monitored
  /// task), and the FIRST violating task's flag verbatim. `--timing`
  /// footer material, like the diagnostics above; its own merge, because
  /// the margins are per-task differences and the first violation is not
  /// a sum or a maximum.
  struct MonitorTotals {
    double rows = 0.0;        ///< tasks that ran with monitors on
    double probes = 0.0;      ///< sum
    double violations = 0.0;  ///< sum of probe × invariant exceedances
    double max_local_skew = 0.0;
    double max_global_skew = 0.0;
    double max_intra = 0.0;
    double max_m_lag = 0.0;
    double min_local_margin = std::numeric_limits<double>::infinity();
    double min_global_margin = std::numeric_limits<double>::infinity();
    double min_intra_margin = std::numeric_limits<double>::infinity();
    bool has_violation = false;
    std::size_t first_task = 0;  ///< task index of `first`
    trace::Violation first;      ///< valid iff has_violation
  };
  MonitorTotals monitor;
};

struct SweepOptions {
  int threads = 1;     ///< worker threads; clamped to [1, #tasks]
  bool timing = false; ///< emit per-row wall_ms / events_per_sec columns
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  /// Runs the full grid of `spec` and aggregates per its SeedAggregation.
  SweepResult run(const ScenarioSpec& spec) const;

 private:
  SweepOptions options_;
};

}  // namespace ftgcs::exp
