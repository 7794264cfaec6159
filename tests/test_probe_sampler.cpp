// ProbeSampler's histogram fill vs the edge-by-edge oracle.
//
// The sampler books each clique, bipartite bundle and cluster as one span
// of values bounded by the cluster clock extremes — in O(1) when both
// bounds share a bucket, value by value when the span straddles a
// boundary. These tests hold the resulting bucket counts, count and max
// equal to tests/skew_oracle.h's per-edge fill at every probe of real
// ring and torus runs (crash-stop and Byzantine faults, 1 and 2 shards),
// and on synthetic columns built to straddle bucket boundaries, so both
// fill paths run. They also check that the sampler refuses any graph that
// is not an augmented graph.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "byz/fault_plan.h"
#include "core/ftgcs_system.h"
#include "exp/topology_graph.h"
#include "metrics/skew_tracker.h"
#include "net/channel.h"
#include "obs/sampler.h"
#include "par/sharded_system.h"
#include "sim/rng.h"
#include "skew_oracle.h"

namespace ftgcs {
namespace {

using obs::LogLinearHistogram;
using obs::ProbeSampler;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void expect_same(const LogLinearHistogram& got,
                 const LogLinearHistogram& want, const std::string& label) {
  EXPECT_EQ(got.counts(), want.counts()) << label;
  EXPECT_EQ(got.count(), want.count()) << label;
  EXPECT_EQ(got.max_seen(), want.max_seen()) << label;
}

/// One sampler and its oracle twin over one topology and bucket scale.
class FillCheck {
 public:
  FillCheck(const net::AugmentedTopology& topo, double hist_scale,
            const std::string& file)
      : topo_(topo),
        graph_(exp::build_topology_graph(topo, net::UniformDelay(1.0, 0.01))),
        local_(ProbeSampler::scaled_spec(hist_scale)),
        global_(ProbeSampler::scaled_spec(hist_scale)),
        sampler_(config(hist_scale, file), graph_) {
    sampler_.prewarm();
  }

  /// Samples `columns` and compares both histograms with the oracle's.
  void check(const core::SystemColumns& columns, const std::string& label) {
    const metrics::SkewSample skews = metrics::measure_skews(columns, topo_);
    obs::SampleContext ctx;
    ctx.at = columns.at;
    ctx.skews = &skews;
    ctx.columns = &columns;
    sampler_.sample(ctx);
    oracle::fill_histograms(graph_, columns, local_, global_);
    expect_same(sampler_.local_histogram(), local_, label + " local");
    expect_same(sampler_.global_histogram(), global_, label + " global");
    // The local max is the node-local skew, the global max the spread.
    EXPECT_EQ(sampler_.local_histogram().max_seen(), skews.node_local)
        << label;
    EXPECT_EQ(sampler_.global_histogram().max_seen(), skews.node_global)
        << label;
  }

  const ProbeSampler::FillStats& stats() const {
    return sampler_.fill_stats();
  }

 private:
  static ProbeSampler::Config config(double hist_scale,
                                     const std::string& file) {
    ProbeSampler::Config c;
    c.path = temp_path(file);
    c.hist_scale = hist_scale;
    return c;
  }

  const net::AugmentedTopology& topo_;
  exp::TopologyGraph graph_;
  LogLinearHistogram local_;
  LogLinearHistogram global_;
  ProbeSampler sampler_;
};

/// Runs `system` for 24 probes (crashing `crash_ids` mid-run) and checks
/// two samplers at every probe: one at the run's own bucket scale (the
/// intra-cluster bound, as exp::run_point uses for clean runs) and one
/// 10⁴× finer, where bundles straddle buckets.
template <typename System>
void check_run(System& system, const net::AugmentedTopology& topo,
               const core::Params& params, const std::vector<int>& crash_ids,
               const std::string& label, ProbeSampler::FillStats& coarse_sum,
               ProbeSampler::FillStats& fine_sum) {
  const double scale = params.intra_cluster_skew_bound();
  FillCheck coarse(topo, scale, label + "_coarse.jsonl");
  FillCheck fine(topo, scale * 1e-4, label + "_fine.jsonl");
  system.start();
  for (int id : crash_ids) system.node(id).crash_at(4.25 * params.T);
  core::SystemColumns columns;
  for (int probe = 1; probe <= 24; ++probe) {
    system.run_until(probe * 0.5 * params.T);
    system.snapshot_columns(columns);
    const std::string at = label + " probe " + std::to_string(probe);
    coarse.check(columns, at + " coarse");
    fine.check(columns, at + " fine");
  }
  const auto add = [](ProbeSampler::FillStats& sum,
                      const ProbeSampler::FillStats& s) {
    sum.local_spans += s.local_spans;
    sum.local_split += s.local_split;
    sum.global_spans += s.global_spans;
    sum.global_split += s.global_split;
  };
  add(coarse_sum, coarse.stats());
  add(fine_sum, fine.stats());
}

void run_property(const net::Graph& graph, const std::vector<int>& crashes,
                  int shards, const std::string& label,
                  ProbeSampler::FillStats& coarse,
                  ProbeSampler::FillStats& fine) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const net::AugmentedTopology topo(graph, params.k);
  const byz::FaultPlan plan = byz::FaultPlan::uniform(
      topo, 1, byz::StrategyKind::kTwoFaced, 3.0 * params.E, /*seed=*/77);
  // One correct member per listed cluster crashes (fault plans are
  // seed-deterministic, so a single system picks the ids for both).
  core::FtGcsSystem::Config single_config;
  single_config.params = params;
  single_config.seed = 5;
  single_config.fault_plan = plan;
  core::FtGcsSystem single(graph, std::move(single_config));
  std::vector<int> crash_ids;
  for (int cluster : crashes) {
    for (int member : topo.members(cluster)) {
      if (single.is_correct(member)) {
        crash_ids.push_back(member);
        break;
      }
    }
  }
  if (shards == 1) {
    check_run(single, topo, params, crash_ids, label, coarse, fine);
    return;
  }
  par::ShardedFtGcsSystem::Config config;
  config.params = params;
  config.seed = 5;
  config.fault_plan = plan;
  config.shards = shards;
  par::ShardedFtGcsSystem sharded(graph, std::move(config));
  check_run(sharded, topo, params, crash_ids, label, coarse, fine);
}

TEST(ProbeSampler, HistogramsMatchEdgeOracleOnFaultyRunsEveryProbe) {
  ProbeSampler::FillStats coarse;
  ProbeSampler::FillStats fine;
  for (int shards : {1, 2}) {
    const std::string s = "_s" + std::to_string(shards);
    run_property(net::Graph::ring(8), {1, 6}, shards, "ring" + s, coarse,
                 fine);
    run_property(net::Graph::torus(4, 4), {0, 10}, shards, "torus" + s,
                 coarse, fine);
  }
  // Both fill paths ran: the run's own scale books nearly every span in
  // O(1), the fine scale splits some of them.
  EXPECT_GT(coarse.local_spans, coarse.local_split);
  EXPECT_GT(coarse.global_spans, coarse.global_split);
  EXPECT_GT(fine.local_split, 0u);
  EXPECT_GT(fine.global_split, 0u);
}

TEST(ProbeSampler, HistogramsMatchEdgeOracleOnStraddlingColumns) {
  // k = 4 clusters on a 5-ring. Clocks are drawn so spans straddle bucket
  // boundaries: near-equal clocks (one bucket), spreads across the linear
  // and geometric sections, and clocks placed on a boundary ±1 ulp
  // against zero-valued peers, so pair differences land exactly on
  // boundaries. Random crash masks include fully crashed clusters.
  const net::AugmentedTopology topo(net::Graph::ring(5), 4);
  const double scale = 1.0;
  FillCheck check(topo, scale, "straddle.jsonl");
  const LogLinearHistogram table(ProbeSampler::scaled_spec(scale));
  const std::vector<double>& bounds = table.boundaries();
  const double kInf = std::numeric_limits<double>::infinity();
  sim::Rng rng(31);
  core::SystemColumns columns;
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  columns.logical.assign(n, 0.0);
  columns.correct.assign(n, 1);
  columns.gamma.assign(n, 0);
  const double spreads[] = {0.0, 1e-9, 1e-3, 0.05, 0.5, 5.0, 100.0};
  for (int trial = 0; trial < 3000; ++trial) {
    columns.at = trial;
    const int mode = trial % 3;
    const double spread = spreads[rng.below(std::size(spreads))];
    for (std::size_t v = 0; v < n; ++v) {
      if (mode == 2) {
        const double b = bounds[rng.below(bounds.size())];
        const double pick = rng.next_double();
        columns.logical[v] = pick < 0.3    ? 0.0
                             : pick < 0.55 ? b
                             : pick < 0.8  ? std::nextafter(b, 0.0)
                                           : std::nextafter(b, kInf);
      } else {
        columns.logical[v] = 1000.0 + spread * rng.next_double();
      }
      columns.correct[v] = mode == 0 || rng.chance(0.8) ? 1 : 0;
    }
    if (trial % 7 == 0) {
      const auto c = static_cast<std::size_t>(rng.below(5));
      for (std::size_t v = c * 4; v < c * 4 + 4; ++v) columns.correct[v] = 0;
    }
    check.check(columns, "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
  const ProbeSampler::FillStats& stats = check.stats();
  EXPECT_GT(stats.local_split, 0u);
  EXPECT_GT(stats.local_spans, stats.local_split);
  EXPECT_GT(stats.global_split, 0u);
  EXPECT_GT(stats.global_spans, stats.global_split);
}

TEST(ProbeSampler, RejectsGraphsThatAreNotAugmented) {
  ProbeSampler::Config config;
  config.path = temp_path("reject.jsonl");
  for (const exp::TopologyGraph& graph : oracle::non_augmented_graphs()) {
    EXPECT_THROW(ProbeSampler(config, graph), std::invalid_argument);
  }
}

}  // namespace
}  // namespace ftgcs
