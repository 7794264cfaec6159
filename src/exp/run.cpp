#include "exp/run.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "clocks/drift_model.h"
#include "core/ftgcs_system.h"
#include "exp/topology_graph.h"
#include "gcs/gcs_system.h"
#include "metrics/skew_tracker.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "obs/phase_profiler.h"
#include "obs/sampler.h"
#include "par/partition.h"
#include "par/sharded_system.h"
#include "support/assert.h"
#include "trace/collector.h"
#include "trace/monitor.h"

namespace ftgcs::exp {

namespace {

double strategy_default_param(byz::StrategyKind kind, const core::Params& p) {
  switch (kind) {
    case byz::StrategyKind::kSilent:
      return 0.0;
    case byz::StrategyKind::kClockLiar:
      return 100.0;
    default:
      return 3.0 * p.E;
  }
}

/// `members_per_cluster` is k for the augmented FT-GCS graph and 1 for the
/// plain-GCS baseline (one node per cluster-graph vertex).
std::unique_ptr<clocks::DriftModel> build_drift(const DriftSpec& spec,
                                                const core::Params& params,
                                                int num_clusters,
                                                int members_per_cluster,
                                                std::uint64_t seed) {
  const double T = params.T;
  switch (spec.kind) {
    case DriftKind::kSpreadConstant:
      return nullptr;  // system default: ConstantDrift spread over envelope
    case DriftKind::kRandomConstant:
      return std::make_unique<clocks::ConstantDrift>(params.rho, seed, false);
    case DriftKind::kRandomWalk:
      return std::make_unique<clocks::RandomWalkDrift>(
          params.rho, spec.step_rounds * T, spec.step_size, seed);
    case DriftKind::kSinusoidal:
      return std::make_unique<clocks::SinusoidalDrift>(
          params.rho, spec.period_rounds * T, spec.step_rounds * T, seed);
    case DriftKind::kSpatialSplit: {
      std::vector<int> group;
      group.reserve(static_cast<std::size_t>(num_clusters) *
                    members_per_cluster);
      for (int c = 0; c < num_clusters; ++c) {
        for (int i = 0; i < members_per_cluster; ++i) group.push_back(c);
      }
      const int boundary = std::max(
          1, static_cast<int>(spec.boundary_frac * num_clusters));
      return std::make_unique<clocks::SpatialSplitDrift>(
          params.rho, std::move(group), boundary, spec.flip_rounds * T);
    }
  }
  FTGCS_ASSERT(false);
  return nullptr;
}

byz::FaultPlan build_fault_plan(const FaultPlanSpec& spec,
                                const net::AugmentedTopology& topo,
                                const core::Params& params,
                                std::uint64_t run_seed) {
  if (!spec.active()) return byz::FaultPlan::none();
  const double param =
      spec.default_param_for_strategy
          ? strategy_default_param(spec.strategy, params)
          : spec.param_abs + spec.param_times_E * params.E;
  const std::uint64_t seed = spec.seed != 0 ? spec.seed : run_seed;
  const int count = spec.count >= 0 ? spec.count : params.f;
  switch (spec.mode) {
    case FaultMode::kNone:
      return byz::FaultPlan::none();
    case FaultMode::kUniform:
      return byz::FaultPlan::uniform(topo, count, spec.strategy, param, seed);
    case FaultMode::kInCluster:
      return byz::FaultPlan::in_cluster(topo, spec.cluster, count,
                                        spec.strategy, param, seed);
    case FaultMode::kIid:
      return byz::FaultPlan::iid(topo, spec.probability, spec.strategy, param,
                                 seed);
  }
  FTGCS_ASSERT(false);
  return byz::FaultPlan::none();
}

struct SampleMaxima {
  double max_local = 0.0;       // cluster-local
  double max_node_local = 0.0;
  double max_intra = 0.0;
  double max_global = 0.0;      // cluster-global
  double steady_local = 0.0;    // maxima over samples at t >= steady_after
  double steady_intra = 0.0;
  double steady_global = 0.0;
  double final_local = 0.0;
  double final_global = 0.0;
  double max_m_lag = 0.0;
};

// Uniform accessors over the two FT-GCS execution backends (the single
// simulator and the sharded conservative-parallel driver), so one
// measurement loop serves both and the metric schema cannot drift apart.
sim::Time system_now(core::FtGcsSystem& s) { return s.simulator().now(); }
sim::Time system_now(const par::ShardedFtGcsSystem& s) { return s.now(); }
std::uint64_t system_events(core::FtGcsSystem& s) {
  return s.simulator().fired_events();
}
std::uint64_t system_events(const par::ShardedFtGcsSystem& s) {
  return s.fired_events();
}
std::uint64_t system_messages(core::FtGcsSystem& s) {
  return s.network().messages_sent();
}
std::uint64_t system_messages(const par::ShardedFtGcsSystem& s) {
  return s.messages_sent();
}
sim::EventQueue::TierStats system_queue(core::FtGcsSystem& s) {
  return s.simulator().queue_stats();
}
sim::EventQueue::TierStats system_queue(const par::ShardedFtGcsSystem& s) {
  return s.queue_stats();
}
void system_window_diag(core::FtGcsSystem&,
                        std::vector<obs::ShardWindowDiag>& out) {
  out.clear();
}
void system_window_diag(const par::ShardedFtGcsSystem& s,
                        std::vector<obs::ShardWindowDiag>& out) {
  s.shard_window_diag(out);
}
par::ShardedFtGcsSystem::ShardStats system_shard_stats(core::FtGcsSystem&) {
  return {};
}
par::ShardedFtGcsSystem::ShardStats system_shard_stats(
    const par::ShardedFtGcsSystem& s) {
  return s.shard_stats();
}

/// Sample times: every probe interval, plus the horizon itself.
std::vector<double> sample_times(double horizon_rounds, double interval_rounds,
                                 double T) {
  std::vector<double> times;
  for (int i = 1; i * interval_rounds < horizon_rounds - 1e-9; ++i) {
    times.push_back(i * interval_rounds * T);
  }
  times.push_back(horizon_rounds * T);
  return times;
}

/// Runs the probe loop and assembles the metric schema against either
/// FT-GCS backend (single simulator or sharded). Every metric is computed
/// from merged ground truth + summed counters, so the rows are
/// bit-identical across backends and shard counts.
template <class System>
RunResult measure_ftgcs(System& system, const ResolvedRun& run,
                        const net::AugmentedTopology& topo,
                        trace::TraceCollector* collector,
                        obs::PhaseProfiler* profiler) {
  const core::Params& params = run.params;
  const int clusters = topo.num_clusters();
  const int diameter = run.graph.diameter();

  const double s_init = (clusters - 1) * run.gap_rounds * params.T;
  const double band = params.predicted_global_skew(diameter);
  const double intra_bound = params.intra_cluster_skew_bound();

  // Online monitors: bounds derived from the same predictions the metric
  // schema reports. S_env = max(initial ramp height, c·δ·D band) is the
  // global-skew envelope of the whole run (the skew drains from s_init
  // into the band and never re-expands past it); Theorem 4.10 then bounds
  // the cluster-local skew for that S, and every node-level quantity adds
  // at most one intra-cluster spread on top of its cluster-level
  // counterpart (the monitor scans node clocks, the theorems speak about
  // cluster clocks). Single-cluster graphs have S_env = 0: only the
  // intra-cluster invariant is meaningful there.
  std::unique_ptr<trace::InvariantMonitor> monitor;
  if (run.monitors) {
    trace::MonitorBounds bounds;
    bounds.intra_cluster = intra_bound;
    const double s_env = std::max(s_init, band);
    if (s_env > 0.0) {
      bounds.local_skew = params.predicted_local_skew(s_env) + intra_bound;
      bounds.global_skew = s_env + intra_bound;
      if (run.measure_m_lag) bounds.m_lag = s_env + intra_bound;
    }
    const net::UniformDelay delays(params.d, params.U);
    monitor = std::make_unique<trace::InvariantMonitor>(
        build_topology_graph(topo, delays), bounds);
  }

  // Deterministic metrics series: registered against the SAME bounds the
  // monitor checks, so the margin gauges and the footer print one truth.
  // The histogram scale is params-derived (envelope height, falling back
  // to the intra-cluster bound), hence identical across backends.
  std::unique_ptr<obs::ProbeSampler> sampler;
  if (!run.metrics_path.empty()) {
    obs::ProbeSampler::Config sampler_config;
    sampler_config.path = run.metrics_path;
    sampler_config.monitors = monitor != nullptr;
    if (monitor != nullptr) sampler_config.bounds = monitor->bounds();
    sampler_config.measure_m_lag = run.measure_m_lag;
    const double scale = std::max(intra_bound, std::max(s_init, band));
    sampler_config.hist_scale = scale > 0.0 ? scale : 1.0;
    const net::UniformDelay delays(params.d, params.U);
    sampler = std::make_unique<obs::ProbeSampler>(
        std::move(sampler_config), build_topology_graph(topo, delays));
    sampler->prewarm();
  }

  SampleMaxima agg;
  const double steady_after = run.steady_after_rounds * params.T;
  core::SystemColumns columns;  // reused across probes (columnar reads)
  std::vector<obs::ShardWindowDiag> diag_scratch;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               params.T)) {
    if (profiler != nullptr) profiler->span_begin("run");
    system.run_until(t);
    if (profiler != nullptr) {
      profiler->span_end("run");
      profiler->span_begin("collect");
    }
    // Probe boundaries are the quiesced commit points of the trace: every
    // shard has advanced to exactly t and its worker is parked, so the
    // per-shard capture buffers are safe to merge.
    if (collector != nullptr) collector->commit();
    system.snapshot_columns(columns);
    const auto skews = metrics::measure_skews(columns, topo);
    agg.max_local = std::max(agg.max_local, skews.cluster_local);
    agg.max_node_local = std::max(agg.max_node_local, skews.node_local);
    agg.max_intra = std::max(agg.max_intra, skews.intra_cluster);
    agg.max_global = std::max(agg.max_global, skews.cluster_global);
    if (t >= steady_after) {
      agg.steady_local = std::max(agg.steady_local, skews.cluster_local);
      agg.steady_intra = std::max(agg.steady_intra, skews.intra_cluster);
      agg.steady_global = std::max(agg.steady_global, skews.cluster_global);
    }
    agg.final_local = skews.cluster_local;
    agg.final_global = skews.cluster_global;
    double probe_m_lag = 0.0;
    if (run.measure_m_lag) {
      double lmax = 0.0;
      for (int id = 0; id < columns.num_nodes(); ++id) {
        if (columns.correct[static_cast<std::size_t>(id)]) {
          lmax = std::max(lmax, columns.logical[static_cast<std::size_t>(id)]);
        }
      }
      const sim::Time now = system_now(system);
      for (int id = 0; id < topo.num_nodes(); ++id) {
        if (!system.is_correct(id)) continue;
        probe_m_lag = std::max(
            probe_m_lag, lmax - system.node(id).max_estimate(now));
      }
      agg.max_m_lag = std::max(agg.max_m_lag, probe_m_lag);
    }
    if (monitor != nullptr) {
      trace::MonitorCursor cursor;
      cursor.at = t;
      cursor.events = system_events(system);
      cursor.trace_records = collector != nullptr ? collector->records() : 0;
      cursor.trace_offset =
          collector != nullptr ? collector->cursor_offset() : 0;
      monitor->observe(columns, cursor);
      if (run.measure_m_lag) monitor->observe_m_lag(probe_m_lag, cursor);
    }
    if (sampler != nullptr) {
      obs::SampleContext ctx;
      ctx.at = t;
      ctx.events = system_events(system);
      ctx.messages = system_messages(system);
      ctx.skews = &skews;
      ctx.columns = &columns;
      ctx.monitor = monitor.get();
      ctx.m_lag = probe_m_lag;
      sampler->sample(ctx);
    }
    if (profiler != nullptr) {
      // The diag rows live in the sidecar, never the series: the tier mix
      // and the per-shard split are shard-dependent.
      system_window_diag(system, diag_scratch);
      profiler->probe_diag(t, system_queue(system), diag_scratch);
      profiler->span_end("collect");
    }
  }

  // ---- static structure ----
  const std::size_t base_edges = run.graph.num_edges();
  std::size_t max_degree = 0;
  for (const auto& neighbors : topo.adjacency()) {
    max_degree = std::max(max_degree, neighbors.size());
  }

  const double init_local = run.gap_rounds * params.T;
  const double predicted_local =
      s_init > 0.0 ? params.predicted_local_skew(s_init) : 0.0;
  const double messages = static_cast<double>(system_messages(system));

  RunResult result;
  result.seed = run.seed;
  auto& m = result.metrics;
  m.emplace_back("clusters", clusters);
  m.emplace_back("diameter", diameter);
  m.emplace_back("nodes", topo.num_nodes());
  m.emplace_back("edges", static_cast<double>(topo.num_edges()));
  m.emplace_back("max_degree", static_cast<double>(max_degree));
  m.emplace_back("k", params.k);
  m.emplace_back("f", params.f);
  m.emplace_back("node_factor",
                 static_cast<double>(topo.num_nodes()) / clusters);
  m.emplace_back("edge_factor",
                 base_edges > 0
                     ? static_cast<double>(topo.num_edges()) / base_edges
                     : 0.0);
  m.emplace_back("edge_factor_norm",
                 base_edges > 0 ? static_cast<double>(topo.num_edges()) /
                                      (base_edges * (params.f + 1.0) *
                                       (params.f + 1.0))
                                : 0.0);
  m.emplace_back("kappa", params.kappa);
  m.emplace_back("delta", params.delta_trig);
  m.emplace_back("T", params.T);
  m.emplace_back("E", params.E);
  m.emplace_back("S_init", s_init);
  m.emplace_back("init_local", init_local);
  m.emplace_back("max_local", agg.max_local);
  m.emplace_back("max_node_local", agg.max_node_local);
  m.emplace_back("max_intra", agg.max_intra);
  m.emplace_back("max_global", agg.max_global);
  m.emplace_back("steady_local", agg.steady_local);
  m.emplace_back("steady_intra", agg.steady_intra);
  m.emplace_back("steady_global", agg.steady_global);
  m.emplace_back("final_local", agg.final_local);
  m.emplace_back("final_global", agg.final_global);
  m.emplace_back("ratio_local",
                 init_local > 0.0 ? agg.max_local / init_local : 0.0);
  m.emplace_back("local_over_kappa",
                 params.kappa > 0.0 ? agg.max_local / params.kappa : 0.0);
  m.emplace_back("log2_diameter",
                 diameter > 0 ? std::log2(static_cast<double>(diameter))
                              : 0.0);
  m.emplace_back("predicted_local", predicted_local);
  m.emplace_back("in_local_bound",
                 predicted_local <= 0.0 || agg.max_local <= predicted_local
                     ? 1.0
                     : 0.0);
  m.emplace_back("band", band);
  // Drain semantics: the remaining skew at the horizon is inside the band.
  m.emplace_back("in_global_band", agg.final_global <= band ? 1.0 : 0.0);
  // Containment semantics: the band was never left at any sample.
  m.emplace_back("in_global_band_max", agg.max_global <= band ? 1.0 : 0.0);
  m.emplace_back("intra_bound", intra_bound);
  m.emplace_back("in_intra_bound", agg.max_intra <= intra_bound ? 1.0 : 0.0);
  m.emplace_back("violations",
                 static_cast<double>(system.total_violations()));
  m.emplace_back("messages", messages);
  m.emplace_back("msgs_round_node",
                 messages / (run.horizon_rounds * topo.num_nodes()));
  m.emplace_back("events", static_cast<double>(system_events(system)));
  if (run.measure_m_lag) m.emplace_back("max_m_lag", agg.max_m_lag);
  result.queue = system_queue(system);
  result.shard = system_shard_stats(system);
  if (monitor != nullptr) {
    result.monitor.enabled = true;
    result.monitor.bounds = monitor->bounds();
    result.monitor.stats = monitor->stats();
  }
  if (sampler != nullptr) {
    sampler->finish();
    result.series = {1, sampler->probes(), sampler->bytes()};
  }
  return result;
}

/// measure_ftgcs plus trace finalization: seals the file (end marker +
/// trailer) and stamps the capture summary into the result.
template <class System>
RunResult measure_and_seal(System& system, const ResolvedRun& run,
                           const net::AugmentedTopology& topo,
                           trace::TraceCollector* collector,
                           obs::PhaseProfiler* profiler = nullptr) {
  RunResult result = measure_ftgcs(system, run, topo, collector, profiler);
  if (collector != nullptr) {
    collector->finish();
    result.trace = {1, collector->records(), collector->bytes_written()};
  }
  if (profiler != nullptr) {
    // Stamp the footer summary from the accumulators, then let finish()
    // write the sidecar rows and close the file. The workers are parked
    // at the start barrier here (run_until returned), so the slot reads
    // are barrier-ordered.
    const obs::PhaseProfiler::PhaseTotals totals = profiler->totals();
    result.profile = {1, profiler->shards(), totals.merge_ms, totals.run_ms,
                      totals.collect_ms, profiler->imbalance()};
    profiler->finish();
  }
  return result;
}

RunResult run_ftgcs(const ResolvedRun& run) {
  const core::Params& params = run.params;

  // Created before either backend (like the trace collector below) so it
  // outlives the system: parked workers touch their phase slots until
  // the system's destructor joins them.
  std::unique_ptr<obs::PhaseProfiler> profiler;
  if (!run.metrics_path.empty()) {
    profiler =
        std::make_unique<obs::PhaseProfiler>(run.metrics_path + ".profile");
    profiler->span_begin("setup");
  }

  net::AugmentedTopology topo(run.graph, params.k);
  const int clusters = topo.num_clusters();

  // Created before either backend so its shard sinks outlive the system;
  // the resulting file is byte-identical at every shard count.
  std::unique_ptr<trace::TraceCollector> collector;
  if (!run.trace_path.empty()) {
    collector = std::make_unique<trace::TraceCollector>(run.trace_path);
  }

  std::vector<int> offsets;
  if (run.gap_rounds > 0) {
    for (int c = 0; c < clusters; ++c) {
      offsets.push_back(c * run.gap_rounds);
    }
  }

  if (run.shards > 1) {
    // The sharded backend needs a non-degenerate partition (≥ 2 effective
    // shards and a positive conservative lookahead); otherwise fall
    // through to the single-simulator engine below.
    const net::UniformDelay delays(params.d, params.U);
    par::ShardPlan plan = par::make_shard_plan(
        build_topology_graph(topo, delays), run.shards);
    if (!plan.degenerate()) {
      par::ShardedFtGcsSystem::Config config;
      config.params = params;
      config.seed = run.seed;
      config.replicas_know_offsets = run.replicas_know_offsets;
      config.fault_plan = run.fault_plan;
      config.cluster_round_offsets = offsets;
      config.shards = plan.num_shards;
      config.plan = std::move(plan);  // probed above; skip the re-census
      config.shared_topo = &topo;  // one topology for driver + every shard
      // Every shard replays the same rate draws: the factory rebuilds the
      // model from the same spec and seed per shard.
      if (run.drift.kind != DriftKind::kSpreadConstant) {
        config.drift_factory = [&run, &params, clusters] {
          return build_drift(run.drift, params, clusters, params.k,
                             run.seed);
        };
      }
      config.trace = collector.get();
      config.profiler = profiler.get();
      par::ShardedFtGcsSystem system(run.graph, std::move(config));
      system.start();
      if (profiler != nullptr) profiler->span_end("setup");
      return measure_and_seal(system, run, topo, collector.get(),
                              profiler.get());
    }
  }

  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = run.seed;
  config.replicas_know_offsets = run.replicas_know_offsets;
  config.drift_model =
      build_drift(run.drift, params, clusters, params.k, run.seed);
  config.fault_plan = run.fault_plan;
  config.cluster_round_offsets = offsets;
  config.shared_topo = &topo;  // already built above for metrics
  if (collector != nullptr) config.trace_sink = collector->shard_sink(0);

  core::FtGcsSystem system(run.graph, std::move(config));
  system.start();
  if (profiler != nullptr) profiler->span_end("setup");
  return measure_and_seal(system, run, topo, collector.get(),
                          profiler.get());
}

RunResult run_gcs_baseline(const ResolvedRun& run) {
  const int n = run.graph.num_vertices();
  const int diameter = run.graph.diameter();

  gcs::GcsSystem::Config config;
  const double mu = run.baseline_mu > 0.0 ? run.baseline_mu : 0.05;
  config.params = gcs::GcsParams::derive(run.params.rho, run.params.d,
                                         run.params.U, mu, run.params.d);
  config.seed = run.seed;
  config.drift_model = build_drift(run.drift, run.params, n, 1, run.seed);
  if (run.fault_plan.size() > 0) {
    // Plain GCS has no cluster structure: reuse the planned node ids as
    // pump nodes (ids beyond the base graph are clamped away).
    for (const auto& spec : run.fault_plan.specs()) {
      if (spec.node < n) config.pump_nodes.push_back(spec.node);
    }
    config.pump_rate = run.fault_plan.specs().front().param;
  }

  gcs::GcsSystem system(run.graph, std::move(config));
  system.start();

  SampleMaxima agg;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               run.params.T)) {
    system.run_until(t);
    const double local = system.local_skew();
    const double global = system.global_skew();
    agg.max_local = std::max(agg.max_local, local);
    agg.max_global = std::max(agg.max_global, global);
    agg.final_local = local;
    agg.final_global = global;
  }

  RunResult result;
  result.seed = run.seed;
  auto& m = result.metrics;
  m.emplace_back("clusters", n);
  m.emplace_back("diameter", diameter);
  m.emplace_back("nodes", n);
  m.emplace_back("edges", static_cast<double>(run.graph.num_edges()));
  m.emplace_back("kappa", config.params.kappa);
  m.emplace_back("max_local", agg.max_local);
  m.emplace_back("max_global", agg.max_global);
  m.emplace_back("final_local", agg.final_local);
  m.emplace_back("final_global", agg.final_global);
  m.emplace_back("events",
                 static_cast<double>(system.simulator().fired_events()));
  result.queue = system.simulator().queue_stats();
  return result;
}

}  // namespace

bool RunResult::has_metric(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return true;
  }
  return false;
}

double RunResult::metric(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  FTGCS_EXPECTS(!"unknown metric name");
  return 0.0;
}

void RunResult::set_metric(const std::string& name, double value) {
  for (auto& [key, existing] : metrics) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

ResolvedRun resolve(const ScenarioSpec& spec, std::uint64_t seed) {
  ResolvedRun run;
  run.params = spec.params.build();
  run.graph = spec.topology.build();
  run.protocol = spec.protocol;
  run.shards = spec.shards;
  run.drift = spec.drift;
  run.baseline_mu = spec.params.mu;
  run.seed = seed;
  run.probe_interval_rounds = spec.probe_interval_rounds;
  run.steady_after_rounds = spec.steady_after_rounds;
  run.measure_m_lag = spec.measure_m_lag;
  run.replicas_know_offsets = spec.replicas_know_offsets;
  run.trace_path = spec.trace_path;
  run.metrics_path = spec.metrics_path;
  run.monitors = spec.monitors;

  const int diameter = run.graph.diameter();
  run.gap_rounds = spec.ramp.resolve(run.params, diameter);
  const double s_init =
      (run.graph.num_vertices() - 1) * run.gap_rounds * run.params.T;
  run.horizon_rounds = spec.horizon.resolve(run.params, diameter, s_init);

  if (spec.protocol == ProtocolKind::kFtGcs) {
    net::AugmentedTopology topo(run.graph, run.params.k);
    run.fault_plan =
        build_fault_plan(spec.faults, topo, run.params, seed);
  } else if (spec.faults.active()) {
    // Baseline pump faults: `count` nodes spread evenly over the graph.
    const int count = std::max(1, spec.faults.count);
    const int n = run.graph.num_vertices();
    for (int i = 0; i < count && i < n; ++i) {
      byz::FaultSpec fault;
      fault.node = static_cast<int>(
          (static_cast<long long>(i) * n) / count);
      fault.kind = spec.faults.strategy;
      fault.param = spec.faults.param_abs;
      run.fault_plan.add(fault);
    }
  }
  return run;
}

RunResult run_resolved(const ResolvedRun& run) {
  switch (run.protocol) {
    case ProtocolKind::kFtGcs:
      return run_ftgcs(run);
    case ProtocolKind::kGcsBaseline:
      return run_gcs_baseline(run);
  }
  FTGCS_ASSERT(false);
  return {};
}

RunResult run_point(const ScenarioSpec& spec, std::uint64_t seed) {
  RunResult result = run_resolved(resolve(spec, seed));
  result.scenario = spec.name;
  return result;
}

}  // namespace ftgcs::exp
