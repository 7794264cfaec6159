// Scenario execution: resolve a concrete ScenarioSpec + seed into a
// ResolvedRun (built Params/Graph/FaultPlan), simulate it on a private
// Simulator, and measure a fixed schema of metrics.
//
// Everything here is deliberately free of shared state: one call = one
// simulator = one result, so a sweep runner can execute resolved runs from
// any thread and the metrics depend only on the spec and the seed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "byz/fault_plan.h"
#include "core/params.h"
#include "exp/scenario.h"
#include "net/graph.h"
#include "par/sharded_system.h"
#include "sim/backend.h"
#include "sim/event_queue.h"
#include "support/stats_fields.h"
#include "trace/monitor.h"

namespace ftgcs::exp {

/// A fully concrete run: specs resolved against the derived Params. Still a
/// value type (the drift model is built inside run_resolved).
struct ResolvedRun {
  core::Params params;
  net::Graph graph{1};
  ProtocolKind protocol = ProtocolKind::kFtGcs;
  /// Unread; kept only because the benchmark harness assigns it (see
  /// sim/backend.h).
  sim::QueueBackend engine = sim::QueueBackend::kLadder;
  /// Conservative-parallel shard count (1 = single simulator). The
  /// effective count can be lower — see par::make_shard_plan.
  int shards = 1;
  DriftSpec drift;
  byz::FaultPlan fault_plan;
  /// kGcsBaseline fast-mode speedup (from ParamsSpec::mu; 0 → 0.05). The
  /// derived params.mu is the FT-GCS value and differs by ~50x.
  double baseline_mu = 0.0;
  int gap_rounds = 0;
  double horizon_rounds = 0.0;
  double probe_interval_rounds = 0.25;
  double steady_after_rounds = 0.0;
  bool measure_m_lag = false;
  bool replicas_know_offsets = true;
  std::uint64_t seed = 1;
  /// Streaming trace capture: path of the .ftr file to write (empty =
  /// tracing off). FT-GCS runs only; the GCS baseline ignores it.
  std::string trace_path;
  /// Deterministic metrics series: JSONL path (empty = off) + the
  /// PATH.profile wall-clock sidecar. FT-GCS runs only.
  std::string metrics_path;
  /// Online invariant monitors (default ON; probe-tier cost only).
  bool monitors = true;
};

/// One completed run: the axis assignments that produced it plus an ordered
/// metric list (fixed schema; see run.cpp for the catalogue).
struct RunResult {
  std::string scenario;
  /// (axis name, display value) pairs, in grid order.
  std::vector<std::pair<std::string, std::string>> point;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  /// Diagnostics of the run's backend. Deterministic, but they depend on
  /// the shard count, so they stay out of `metrics` (every sink's output
  /// is bit-identical across `--shards`); the `--timing` footer merges
  /// them over tasks instead. Each type lists its fields once in
  /// each_field() (support/stats_fields.h).
  sim::EventQueue::TierStats queue;  ///< merged over shards
  par::ShardedFtGcsSystem::ShardStats shard;  ///< default when unsharded

  /// Online invariant-monitor report. Footer material for the same reason
  /// as the diagnostics above: the monitors observe the same ground truth
  /// on every backend, but their report stays out of `metrics` so the
  /// tables cannot change shape when monitors are toggled.
  struct MonitorReport {
    bool enabled = false;
    trace::MonitorBounds bounds;
    trace::InvariantMonitor::Stats stats;
  };
  MonitorReport monitor;

  /// Trace-capture summary (all zero when tracing was off).
  struct TraceInfo {
    std::uint64_t files = 0;  ///< 1 when this run wrote a trace
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;

    template <class F>
    static void each_field(F&& f) {
      f("files", &TraceInfo::files, support::Merge::kSum);
      f("records", &TraceInfo::records, support::Merge::kSum);
      f("bytes", &TraceInfo::bytes, support::Merge::kSum);
    }
  };
  TraceInfo trace;

  /// Deterministic metrics-series summary (all zero when --metrics was
  /// off). `probes`/`bytes` are themselves deterministic: the series is
  /// byte-identical across engines and shard counts.
  struct SeriesInfo {
    std::uint64_t files = 0;  ///< 1 when this run wrote a series
    std::uint64_t probes = 0;
    std::uint64_t bytes = 0;

    template <class F>
    static void each_field(F&& f) {
      f("files", &SeriesInfo::files, support::Merge::kSum);
      f("probes", &SeriesInfo::probes, support::Merge::kSum);
      f("bytes", &SeriesInfo::bytes, support::Merge::kSum);
    }
  };
  SeriesInfo series;

  /// Wall-clock phase-profiler summary (PATH.profile sidecar). Timing is
  /// machine-dependent — footer material only, never a metric. Phase
  /// totals stay zero for unsharded runs (spans still cover setup/run/
  /// collect).
  struct ProfileInfo {
    std::uint64_t rows = 0;  ///< 1 when this run ran the profiler
    int shards = 0;
    double merge_ms = 0.0;
    double run_ms = 0.0;
    double wait_ms = 0.0;
    double imbalance = 0.0;  ///< max/mean per-shard run-phase time

    template <class F>
    static void each_field(F&& f) {
      using support::Merge;
      f("rows", &ProfileInfo::rows, Merge::kSum);
      f("shards", &ProfileInfo::shards, Merge::kMax);
      f("merge_ms", &ProfileInfo::merge_ms, Merge::kSum);
      f("run_ms", &ProfileInfo::run_ms, Merge::kSum);
      f("wait_ms", &ProfileInfo::wait_ms, Merge::kSum);
      f("imbalance", &ProfileInfo::imbalance, Merge::kMax);
    }
  };
  ProfileInfo profile;

  bool has_metric(const std::string& name) const;
  double metric(const std::string& name) const;  ///< aborts if missing
  void set_metric(const std::string& name, double value);
};

/// Resolves spec (with axes already applied) + seed. The initial global skew
/// needed by HorizonSpec is the analytic ramp height (|C|−1)·gap·T.
ResolvedRun resolve(const ScenarioSpec& spec, std::uint64_t seed);

/// Simulates one resolved run and measures metrics.
RunResult run_resolved(const ResolvedRun& run);

/// resolve() + run_resolved().
RunResult run_point(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace ftgcs::exp
