#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/ftgcs_system.h"
#include "exp/topology_graph.h"
#include "metrics/skew_tracker.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "obs/phase_profiler.h"
#include "obs/sampler.h"
#include "par/partition.h"
#include "par/sharded_system.h"
#include "trace/monitor.h"

namespace perfbench {

namespace fx = ftgcs::exp;
using ftgcs::core::FtGcsSystem;
using ftgcs::par::ShardedFtGcsSystem;

// ---- Tracer ----------------------------------------------------------------

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ms = now_ms();
  spans_.push_back(span);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
  stack_.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (double d : durations_ms(name)) total += d;
  return total;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 i, s.name, s.parent, s.start_ms, s.end_ms);
  }
  std::fclose(file);
}

// ---- fingerprint -----------------------------------------------------------

Fingerprint fingerprint_of(const fx::RunResult& result) {
  Fingerprint fp;
  fp.events = result.metric("events");
  fp.messages = result.metric("messages");
  fp.max_local = result.metric("max_local");
  fp.max_global = result.metric("max_global");
  fp.max_intra = result.metric("max_intra");
  fp.violations = result.metric("violations");
  fp.monitor_violations =
      static_cast<double>(result.monitor.stats.violations);
  fp.in_local_bound = result.metric("in_local_bound") != 0.0;
  fp.in_intra_bound = result.metric("in_intra_bound") != 0.0;
  return fp;
}

// ---- replay ----------------------------------------------------------------

namespace {

// Counter access over the two FT-GCS backends, mirroring exp/run.cpp.
std::uint64_t events_of(FtGcsSystem& s) {
  return s.simulator().fired_events();
}
std::uint64_t events_of(ShardedFtGcsSystem& s) { return s.fired_events(); }
std::uint64_t messages_of(FtGcsSystem& s) {
  return s.network().messages_sent();
}
std::uint64_t messages_of(ShardedFtGcsSystem& s) { return s.messages_sent(); }
ftgcs::sim::EventQueue::TierStats tiers_of(FtGcsSystem& s) {
  return s.simulator().queue_stats();
}
ftgcs::sim::EventQueue::TierStats tiers_of(ShardedFtGcsSystem& s) {
  return s.queue_stats();
}
void window_diag(FtGcsSystem&, std::vector<ftgcs::obs::ShardWindowDiag>& out) {
  out.clear();
}
void window_diag(ShardedFtGcsSystem& s,
                 std::vector<ftgcs::obs::ShardWindowDiag>& out) {
  s.shard_window_diag(out);
}

void count_backend(FtGcsSystem& s, LayerCounts& c) {
  c.messages_delivered +=
      static_cast<double>(s.network().messages_delivered());
}
void count_backend(ShardedFtGcsSystem& s, LayerCounts& c) {
  const ShardedFtGcsSystem::ShardStats stats = s.shard_stats();
  c.par_windows += static_cast<double>(stats.windows);
  c.par_cut_edges =
      std::max(c.par_cut_edges, static_cast<double>(stats.cut_edges));
  c.par_mailbox_peak =
      std::max(c.par_mailbox_peak, static_cast<double>(stats.mailbox_peak));
  std::vector<ftgcs::obs::ShardWindowDiag> diag;
  s.shard_window_diag(diag);
  for (const auto& row : diag) c.par_routed += static_cast<double>(row.routed);
}

std::vector<double> sample_times(double horizon_rounds, double interval_rounds,
                                 double T) {
  std::vector<double> times;
  for (int i = 1; i * interval_rounds < horizon_rounds - 1e-9; ++i) {
    times.push_back(i * interval_rounds * T);
  }
  times.push_back(horizon_rounds * T);
  return times;
}

// The probe loop of exp/run.cpp's measure_ftgcs, reduced to the metrics the
// fingerprint holds, with one span per layer call.
template <class System>
Fingerprint probe_loop(System& system, const fx::ResolvedRun& run,
                       const ftgcs::net::AugmentedTopology& topo,
                       ftgcs::obs::PhaseProfiler* profiler, Tracer& tracer,
                       LayerCounts& counts) {
  const ftgcs::core::Params& params = run.params;
  const int clusters = topo.num_clusters();
  const double s_init = (clusters - 1) * run.gap_rounds * params.T;
  const double band = params.predicted_global_skew(run.graph.diameter());
  const double intra_bound = params.intra_cluster_skew_bound();

  std::unique_ptr<ftgcs::trace::InvariantMonitor> monitor;
  if (run.monitors) {
    ftgcs::trace::MonitorBounds bounds;
    bounds.intra_cluster = intra_bound;
    const double s_env = std::max(s_init, band);
    if (s_env > 0.0) {
      bounds.local_skew = params.predicted_local_skew(s_env) + intra_bound;
      bounds.global_skew = s_env + intra_bound;
    }
    const ftgcs::net::UniformDelay delays(params.d, params.U);
    monitor = std::make_unique<ftgcs::trace::InvariantMonitor>(
        fx::build_topology_graph(topo, delays), bounds);
  }
  std::unique_ptr<ftgcs::obs::ProbeSampler> sampler;
  if (!run.metrics_path.empty()) {
    ftgcs::obs::ProbeSampler::Config config;
    config.path = run.metrics_path;
    config.monitors = monitor != nullptr;
    if (monitor != nullptr) config.bounds = monitor->bounds();
    const double scale = std::max(intra_bound, std::max(s_init, band));
    config.hist_scale = scale > 0.0 ? scale : 1.0;
    const ftgcs::net::UniformDelay delays(params.d, params.U);
    sampler = std::make_unique<ftgcs::obs::ProbeSampler>(
        std::move(config), fx::build_topology_graph(topo, delays));
    sampler->prewarm();
  }

  Fingerprint fp;
  ftgcs::core::SystemColumns columns;
  std::vector<ftgcs::obs::ShardWindowDiag> diag;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               params.T)) {
    tracer.span("sim.run", [&] { system.run_until(t); });
    tracer.span("core.snapshot", [&] { system.snapshot_columns(columns); });
    const ftgcs::metrics::SkewSample skews = tracer.span(
        "metrics.skews",
        [&] { return ftgcs::metrics::measure_skews(columns, topo); });
    fp.max_local = std::max(fp.max_local, skews.cluster_local);
    fp.max_intra = std::max(fp.max_intra, skews.intra_cluster);
    fp.max_global = std::max(fp.max_global, skews.cluster_global);
    if (monitor != nullptr) {
      tracer.span("trace.monitor", [&] {
        ftgcs::trace::MonitorCursor cursor;
        cursor.at = t;
        cursor.events = events_of(system);
        monitor->observe(columns, cursor);
      });
    }
    if (sampler != nullptr) {
      tracer.span("obs.sample", [&] {
        ftgcs::obs::SampleContext ctx;
        ctx.at = t;
        ctx.events = events_of(system);
        ctx.messages = messages_of(system);
        ctx.skews = &skews;
        ctx.columns = &columns;
        ctx.monitor = monitor.get();
        sampler->sample(ctx);
        if (profiler != nullptr && !run.metrics_path.empty()) {
          window_diag(system, diag);
          profiler->probe_diag(t, tiers_of(system), diag);
        }
      });
    }
  }

  const double predicted_local =
      s_init > 0.0 ? params.predicted_local_skew(s_init) : 0.0;
  fp.events = static_cast<double>(events_of(system));
  fp.messages = static_cast<double>(messages_of(system));
  fp.violations = static_cast<double>(system.total_violations());
  fp.in_local_bound =
      predicted_local <= 0.0 || fp.max_local <= predicted_local;
  fp.in_intra_bound = fp.max_intra <= intra_bound;
  if (monitor != nullptr) {
    fp.monitor_violations =
        static_cast<double>(monitor->stats().violations);
  }

  const ftgcs::sim::EventQueue::TierStats tiers = tiers_of(system);
  counts.events_fired += fp.events;
  counts.events_scheduled +=
      static_cast<double>(tiers.narrow_events + tiers.wide_events);
  counts.unordered_events += static_cast<double>(tiers.unordered_events);
  counts.ordered_run_events += static_cast<double>(tiers.ordered_run_events);
  counts.narrow_events += static_cast<double>(tiers.narrow_events);
  counts.entry_bytes += static_cast<double>(tiers.entry_bytes());
  counts.reseeds += static_cast<double>(tiers.reseeds);
  counts.rung_spawns += static_cast<double>(tiers.rung_spawns);
  counts.overflow_pushes += static_cast<double>(tiers.overflow_pushes);
  counts.overflow_peak =
      std::max(counts.overflow_peak, static_cast<double>(tiers.overflow_peak));
  counts.messages_sent += fp.messages;
  counts.violations += fp.violations;
  counts.faulty_nodes += static_cast<double>(run.fault_plan.size());
  for (const auto& neighbors : topo.adjacency()) {
    counts.fanout_sum += static_cast<double>(neighbors.size() + 1);
  }
  counts.fanout_nodes += topo.num_nodes();
  count_backend(system, counts);
  if (sampler != nullptr) {
    sampler->finish();
    counts.series_bytes += static_cast<double>(sampler->bytes());
  }
  return fp;
}

void add_profile(const ftgcs::obs::PhaseProfiler& profiler,
                 LayerCounts& counts) {
  const ftgcs::obs::PhaseProfiler::PhaseTotals totals = profiler.totals();
  counts.par_merge_ms += totals.merge_ms;
  counts.par_run_ms += totals.run_ms;
  counts.par_wait_ms += totals.collect_ms;
  counts.par_imbalance = std::max(counts.par_imbalance, profiler.imbalance());
}

}  // namespace

Fingerprint replay_run(const fx::ScenarioSpec& spec, std::uint64_t seed,
                       Tracer& tracer, LayerCounts& counts,
                       const ReplayOptions& options) {
  const fx::ResolvedRun run =
      tracer.span("exp.resolve", [&] { return fx::resolve(spec, seed); });
  if (run.protocol != fx::ProtocolKind::kFtGcs ||
      run.drift.kind != fx::DriftKind::kSpreadConstant || run.measure_m_lag ||
      !run.trace_path.empty()) {
    throw std::runtime_error("replay covers FT-GCS runs with default drift, "
                             "no M_v lag and no trace capture only");
  }
  const ftgcs::core::Params& params = run.params;

  // Created before either backend so it outlives the system (parked
  // workers touch their phase slots until the destructor joins them).
  std::unique_ptr<ftgcs::obs::PhaseProfiler> profiler;
  std::string profile_path = run.metrics_path.empty()
                                 ? options.par_profile_path
                                 : run.metrics_path + ".profile";
  if (!run.metrics_path.empty() || (run.shards > 1 && !profile_path.empty())) {
    profiler = std::make_unique<ftgcs::obs::PhaseProfiler>(profile_path);
  }

  const ftgcs::net::AugmentedTopology topo = tracer.span("net.topology", [&] {
    return ftgcs::net::AugmentedTopology(run.graph, params.k);
  });
  std::vector<int> offsets;
  if (run.gap_rounds > 0) {
    for (int c = 0; c < topo.num_clusters(); ++c) {
      offsets.push_back(c * run.gap_rounds);
    }
  }

  if (run.shards > 1) {
    ftgcs::par::ShardPlan plan = tracer.span("par.plan", [&] {
      const ftgcs::net::UniformDelay delays(params.d, params.U);
      return ftgcs::par::make_shard_plan(
          fx::build_topology_graph(topo, delays), run.shards);
    });
    if (!plan.degenerate()) {
      ShardedFtGcsSystem::Config config;
      config.params = params;
      config.seed = run.seed;
      config.engine = run.engine;
      config.replicas_know_offsets = run.replicas_know_offsets;
      config.fault_plan = run.fault_plan;
      config.cluster_round_offsets = offsets;
      config.shards = plan.num_shards;
      config.plan = std::move(plan);
      config.shared_topo = &topo;
      config.profiler = profiler.get();
      auto system = tracer.span("core.build", [&] {
        return std::make_unique<ShardedFtGcsSystem>(run.graph,
                                                    std::move(config));
      });
      tracer.span("core.start", [&] { system->start(); });
      if (options.on_started) options.on_started();
      if (options.setup_only) return {};
      const Fingerprint fp =
          probe_loop(*system, run, topo, profiler.get(), tracer, counts);
      if (profiler != nullptr) add_profile(*profiler, counts);
      return fp;
    }
  }

  FtGcsSystem::Config config;
  config.params = params;
  config.seed = run.seed;
  config.engine = run.engine;
  config.replicas_know_offsets = run.replicas_know_offsets;
  config.fault_plan = run.fault_plan;
  config.cluster_round_offsets = offsets;
  config.shared_topo = &topo;
  auto system = tracer.span("core.build", [&] {
    return std::make_unique<FtGcsSystem>(run.graph, std::move(config));
  });
  tracer.span("core.start", [&] { system->start(); });
  if (options.on_started) options.on_started();
  if (options.setup_only) return {};
  return probe_loop(*system, run, topo, profiler.get(), tracer, counts);
}

}  // namespace perfbench
