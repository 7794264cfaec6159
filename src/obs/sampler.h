// ProbeSampler: the deterministic sim-time metrics series.
//
// One sampler = one JSONL file. The constructor writes a header row
// (schema id + topology shape + the monitor's envelope bounds) and
// registers the fixed metric schema; every probe boundary then calls
// sample(), which refills the per-probe histograms from the per-cluster
// clock extremes of the columnar snapshot, updates gauges/counters from the
// ground-truth skew sample and the invariant monitor, and appends one
// JSON row. Everything serialized here is a pure function of (scenario,
// seed, probe time) — NEVER of the queue's internal tiers or the shard
// count — so the file is bit-identical across `--shards {1,2,4,8}` (and
// to the series the deleted heap engine wrote, pinned in
// tests/test_obs_metrics.cpp); tier- and shard-dependent diagnostics go
// to the PhaseProfiler sidecar instead.
//
// The histogram fill: the local histogram holds one |L_v − L_w| per
// augmented edge between correct nodes, the global one L_v − min L per
// correct node. The augmented graph is cliques joined by complete
// bipartite bundles (checked by the constructor, which throws
// std::invalid_argument on any other graph), so each clique, bundle and
// cluster is one span of values whose bounds follow from the cluster
// extremes (metrics/cluster_extremes.h): when both bounds share a bucket
// the whole span is booked in O(1) (LogLinearHistogram::record_span),
// otherwise its pairs or members are recorded one by one. Bucket counts,
// count and max are integers and an exact max, so the fill order cannot
// change a byte; tests/test_probe_sampler.cpp checks the histograms
// against an edge-by-edge fill at every probe.
//
// Allocation contract: after prewarm() the sample() path allocates
// nothing — the row buffer and histogram storage are capacity-pinned and
// the stdio buffer was forced into existence by the header write
// (pinned by the ScopedAllocGuard test in tests/test_obs_metrics.cpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/node_table.h"
#include "exp/topology_graph.h"
#include "metrics/cluster_extremes.h"
#include "metrics/skew_tracker.h"
#include "obs/metrics.h"
#include "trace/monitor.h"

namespace ftgcs::obs {

/// Everything one probe feeds the sampler. `skews` and `columns` are
/// required; `monitor` is null when monitors are off (the margin and
/// violation fields are then not part of the schema); `m_lag` is only
/// read when the sampler was configured with measure_m_lag.
struct SampleContext {
  sim::Time at = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  const metrics::SkewSample* skews = nullptr;
  const core::SystemColumns* columns = nullptr;
  const trace::InvariantMonitor* monitor = nullptr;
  double m_lag = 0.0;
};

class ProbeSampler {
 public:
  struct Config {
    std::string path;
    /// Envelope bounds written into the header and (for each enabled
    /// family) tracked as a min-margin gauge. All zero = monitors off.
    trace::MonitorBounds bounds;
    bool monitors = false;
    bool measure_m_lag = false;
    /// Scale of the skew histograms (a time quantity derived from the
    /// run's params — e.g. the intra-cluster bound — so the bucket
    /// table is identical across backends). Must be > 0.
    double hist_scale = 1.0;
  };

  /// Builds the bucket table used by both skew histograms: linear
  /// resolution of scale/1000 up to scale/10, then ×1.25 geometric
  /// growth up to 64·scale.
  static LogLinearHistogram::Spec scaled_spec(double scale);

  /// How the histogram fills split: spans booked in O(1) vs spans that
  /// straddled a bucket boundary and were recorded value by value. Local
  /// spans are cliques and bundles, global spans are clusters.
  struct FillStats {
    std::uint64_t local_spans = 0;
    std::uint64_t local_split = 0;
    std::uint64_t global_spans = 0;
    std::uint64_t global_split = 0;
  };

  /// Keeps the cluster-level adjacency of the resolved topology (same
  /// ownership rule as trace::InvariantMonitor: the sampler outlives
  /// resolution scratch); throws std::invalid_argument unless `graph` is
  /// an augmented graph. Opens `config.path` and writes the header row.
  ProbeSampler(Config config, exp::TopologyGraph graph);
  ~ProbeSampler();

  ProbeSampler(const ProbeSampler&) = delete;
  ProbeSampler& operator=(const ProbeSampler&) = delete;

  /// Capacity-pins the row buffer; call once before the probe loop to
  /// make the steady-state zero-allocation contract exact.
  void prewarm();

  /// One probe boundary: refill histograms, update the registry, append
  /// one JSONL row.
  void sample(const SampleContext& ctx);

  /// Flushes and closes the file (idempotent). Throws std::runtime_error
  /// naming the path if the flush fails, as sample() does for a short
  /// write. The dtor closes an unfinished file without checking.
  void finish();

  std::uint64_t probes() const { return probes_; }
  std::uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }
  MetricsRegistry& registry() { return registry_; }
  /// The per-probe histograms as the last sample() left them.
  const LogLinearHistogram& local_histogram() const { return *local_hist_; }
  const LogLinearHistogram& global_histogram() const { return *global_hist_; }
  /// Fill split, summed over every sample() so far.
  const FillStats& fill_stats() const { return fill_stats_; }

 private:
  void write_header(const Config& config);
  void fill_local(const core::SystemColumns& cols);
  void fill_global(const core::SystemColumns& cols);

  std::string path_;
  int num_nodes_ = 0;
  int cluster_size_ = 0;
  std::vector<std::vector<int>> cluster_neighbors_;
  metrics::ClusterExtremes extremes_;  ///< probe scratch, reused
  FillStats fill_stats_;
  bool measure_m_lag_ = false;
  std::FILE* file_ = nullptr;
  MetricsRegistry registry_;
  std::string line_;  ///< reused row buffer (reserved in prewarm)
  std::uint64_t probes_ = 0;
  std::uint64_t bytes_ = 0;

  // Registered storage (owned by registry_; raw pointers are stable).
  Counter* events_ = nullptr;
  Counter* messages_ = nullptr;
  LogLinearHistogram* local_hist_ = nullptr;
  LogLinearHistogram* global_hist_ = nullptr;
  Gauge* cluster_local_ = nullptr;
  Gauge* cluster_global_ = nullptr;
  Gauge* intra_max_ = nullptr;
  Gauge* m_lag_ = nullptr;
  Counter* violations_ = nullptr;
  Gauge* margin_local_ = nullptr;
  Gauge* margin_global_ = nullptr;
  Gauge* margin_intra_ = nullptr;
  Gauge* margin_m_lag_ = nullptr;
};

}  // namespace ftgcs::obs
