// Metrics-plane pins: histogram bucket geometry, percentile semantics,
// the zero-allocation sampling contract, a byte-exact golden series, and
// shard invariance of the deterministic JSONL plane (plus its equality
// with the deleted heap engine's series, see tests/pins.h).
//
// The golden FNV constant pins the series format (field order, %.17g
// rendering, header shape) AND the simulated trajectory it serializes.
// Any intentional schema change must bump the schema id in
// obs/sampler.cpp and this constant together.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/exp.h"
#include "obs/histogram.h"
#include "obs/phase_profiler.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "pins.h"
#include "support/alloc_guard.h"

namespace ftgcs {
namespace {

using exp::AxisValue;
using exp::ScenarioSpec;
using obs::LogLinearHistogram;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

using pins::fnv1a;
using pins::read_file;

// The monitored large_torus series (clusters=64, seed 1) the heap engine
// wrote — byte-identical at every shard count — recorded at the last
// commit that had that engine.
constexpr std::uint64_t kTorusSeriesHeapPin = 0x8cee45742645fa1aull;
constexpr std::size_t kTorusSeriesHeapBytes = 2194;

// ---- histogram geometry ----------------------------------------------------

TEST(LogLinearHistogram, BucketBoundariesExactFromSpec) {
  // Widths chosen to be exact in IEEE-754 so every boundary is a pure
  // function of the spec on any platform.
  const LogLinearHistogram h({/*linear_width=*/0.25, /*linear_max=*/1.0,
                              /*growth=*/2.0, /*max=*/8.0});
  const std::vector<double> expected = {0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 8.0};
  EXPECT_EQ(h.boundaries(), expected);
  EXPECT_EQ(h.num_buckets(), expected.size() + 1);  // + overflow

  EXPECT_EQ(h.bucket_index(-1.0), 0u);  // negatives clamp into bucket 0
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(0.24), 0u);
  // A value ON a boundary belongs to the bucket ABOVE it (upper bounds
  // are exclusive).
  EXPECT_EQ(h.bucket_index(0.25), 1u);
  EXPECT_EQ(h.bucket_index(1.0), 4u);   // first geometric bucket
  EXPECT_EQ(h.bucket_index(7.99), 6u);
  EXPECT_EQ(h.bucket_index(8.0), 7u);   // overflow bucket
  EXPECT_EQ(h.bucket_index(1e12), 7u);
}

TEST(LogLinearHistogram, BucketIndexEqualsUpperBoundEverywhere) {
  // bucket_index guesses from the spec's closed form and fixes up against
  // the accumulated boundary table; it must agree with a binary search on
  // every boundary, one ulp either side, and the special values.
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<LogLinearHistogram::Spec> specs = {
      {0.25, 1.0, 2.0, 8.0},
      obs::ProbeSampler::scaled_spec(1.0),
      obs::ProbeSampler::scaled_spec(664.0),
      obs::ProbeSampler::scaled_spec(3.7e-5),
      {0.3, 1.7, 1.1, 1e4},
      {1e-4, 1e-2, 1.5, 1e3},
      {0.1, 0.35, 1.01, 2.0},
  };
  for (const LogLinearHistogram::Spec& spec : specs) {
    const LogLinearHistogram h(spec);
    const std::vector<double>& bounds = h.boundaries();
    const auto reference = [&](double v) {
      return static_cast<std::size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    };
    std::vector<double> probes = {-1.0,  -0.0, 0.0, kInf, -kInf,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  spec.linear_max, spec.max, 1e300};
    for (const double b : bounds) {
      probes.push_back(b);
      probes.push_back(std::nextafter(b, -kInf));
      probes.push_back(std::nextafter(b, kInf));
      probes.push_back(b * 0.5 + std::nextafter(b, kInf) * 0.5);
    }
    for (const double v : probes) {
      EXPECT_EQ(h.bucket_index(v), reference(v))
          << "value " << v << " spec width " << spec.linear_width;
    }
  }
}

TEST(LogLinearHistogram, RecordSpanBooksOneBucketOrDeclines) {
  LogLinearHistogram span({1.0, 10.0, 2.0, 80.0});
  LogLinearHistogram each({1.0, 10.0, 2.0, 80.0});
  // [2.25, 2.75] sits in bucket [2, 3): booked in O(1).
  EXPECT_TRUE(span.record_span(2.25, 2.75, 5));
  for (int i = 0; i < 4; ++i) each.record(2.25);
  each.record(2.75);
  EXPECT_EQ(span.counts(), each.counts());
  EXPECT_EQ(span.count(), 5u);
  EXPECT_EQ(span.max_seen(), 2.75);
  // [2.5, 3.0] straddles the boundary 3: nothing is recorded.
  EXPECT_FALSE(span.record_span(2.5, 3.0, 4));
  EXPECT_EQ(span.counts(), each.counts());
  EXPECT_EQ(span.count(), 5u);
  // An empty span changes nothing, not even the max.
  EXPECT_TRUE(span.record_span(40.0, 50.0, 0));
  EXPECT_EQ(span.count(), 5u);
  EXPECT_EQ(span.max_seen(), 2.75);
}

TEST(LogLinearHistogram, PercentilesAreBucketBoundsClippedToMax) {
  LogLinearHistogram h({/*linear_width=*/1.0, /*linear_max=*/10.0,
                        /*growth=*/2.0, /*max=*/80.0});
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty

  h.record(0.5);
  h.record(1.5);
  h.record(2.5);
  h.record(3.5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max_seen(), 3.5);
  // rank(0.5) = 2nd sample → bucket [1,2): upper bound 2.
  EXPECT_EQ(h.percentile(0.5), 2.0);
  // The top percentiles clip to the exact running max, not a boundary.
  EXPECT_EQ(h.percentile(0.99), 3.5);
  EXPECT_EQ(h.percentile(1.0), 3.5);

  // Overflow values read back as the max, never as infinity.
  h.record(5000.0);
  EXPECT_EQ(h.percentile(1.0), 5000.0);

  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_seen(), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
  h.record(0.25);
  EXPECT_EQ(h.percentile(1.0), 0.25);
}

TEST(LogLinearHistogram, RecordAndPercentileAllocateNothing) {
  LogLinearHistogram h(obs::ProbeSampler::scaled_spec(1.0));
  support::ScopedAllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    h.record(i * 1e-5);
  }
  volatile double sink = h.percentile(0.5) + h.percentile(0.99);
  (void)sink;
  h.clear();
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(ProbeSampler, ScaledSpecDerivesFromScale) {
  const LogLinearHistogram::Spec spec = obs::ProbeSampler::scaled_spec(2.0);
  EXPECT_EQ(spec.linear_width, 0.002);
  EXPECT_EQ(spec.linear_max, 0.2);
  EXPECT_EQ(spec.growth, 1.25);
  EXPECT_EQ(spec.max, 128.0);
}

// ---- zero-allocation sampling contract -------------------------------------

// After prewarm(), sample() must allocate nothing — from the FIRST probe,
// not after a warm-up: the row buffer is capacity-pinned by prewarm, the
// registry storage is fixed at registration, and the stdio stream buffer
// was forced into existence by the header write in the constructor.
TEST(ProbeSampler, SteadyStateSamplingAllocatesNothing) {
  // Hand-built 4-node augmented topology (2 clusters × 2: two cliques
  // and one complete bipartite bundle) — the sampler only reads the
  // cluster shape, so this stays tiny.
  exp::TopologyGraph graph;
  graph.num_clusters = 2;
  graph.cluster_size = 2;
  graph.adjacency = {{1, 2, 3}, {0, 2, 3}, {3, 0, 1}, {2, 0, 1}};
  graph.cluster_of = {0, 0, 1, 1};
  graph.min_delay = 0.5;
  graph.max_delay = 1.0;

  obs::ProbeSampler::Config config;
  config.path = temp_path("alloc_pin.jsonl");
  config.monitors = false;
  config.hist_scale = 1.0;
  obs::ProbeSampler sampler(config, graph);
  sampler.prewarm();

  core::SystemColumns columns;
  columns.logical = {1.0, 1.25, 1.5, 2.0};
  columns.correct = {1, 1, 1, 1};
  columns.gamma = {0, 0, 0, 0};
  metrics::SkewSample skews;
  skews.node_local = 0.5;
  skews.cluster_local = 0.25;
  skews.intra_cluster = 0.25;
  skews.node_global = 1.0;
  skews.cluster_global = 0.75;

  obs::SampleContext ctx;
  ctx.events = 0;
  ctx.messages = 0;
  ctx.skews = &skews;
  ctx.columns = &columns;

  {
    support::ScopedAllocGuard guard;
    for (int probe = 0; probe < 200; ++probe) {
      ctx.at = probe * 0.125;
      ctx.events += 7;
      ctx.messages += 3;
      sampler.sample(ctx);
    }
    EXPECT_EQ(guard.allocations(), 0u);
  }
  sampler.finish();
  EXPECT_EQ(sampler.probes(), 200u);

  // The file it produced is well-formed series JSONL.
  obs::SeriesData series;
  std::string error;
  ASSERT_TRUE(obs::load_series(sampler.path(), &series, &error)) << error;
  EXPECT_EQ(series.rows.size(), 200u);
  EXPECT_EQ(series.header.number("nodes"), 4.0);
  // Histogram max fields are exact (clipped to max_seen): the worst
  // edge gap is |2.0 − 1.0| = 1.0 every probe.
  EXPECT_EQ(series.rows.back().number("local_max"), 1.0);
  EXPECT_EQ(series.rows.back().number("global_max"), 1.0);
}

// ---- full disk: typed errors, never a truncated series ---------------------

/// Runs `fn` and returns the std::runtime_error message it threw ("" if
/// it threw nothing).
template <typename Fn>
std::string runtime_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(ProbeSampler, FullDiskIsATypedErrorNamingThePath) {
  // /dev/full accepts the open and fails every flush with ENOSPC: the
  // stdio buffer hides short rows until the close, so finish() must
  // check it.
  exp::TopologyGraph graph;
  graph.num_clusters = 1;
  graph.cluster_size = 2;
  graph.adjacency = {{1}, {0}};
  graph.cluster_of = {0, 0};
  obs::ProbeSampler::Config config;
  config.path = "/dev/full";
  config.monitors = false;
  const std::string message = runtime_error_of([&] {
    obs::ProbeSampler sampler(config, graph);
    sampler.finish();
  });
  EXPECT_NE(message.find("'/dev/full'"), std::string::npos) << message;
}

TEST(PhaseProfiler, FullDiskIsATypedErrorNamingThePath) {
  const std::string message = runtime_error_of([] {
    obs::PhaseProfiler profiler("/dev/full");
    profiler.bind_shards(2);
    profiler.finish();
  });
  EXPECT_NE(message.find("'/dev/full'"), std::string::npos) << message;
}

TEST(MetricsSeries, MetricsPathOnAFullDiskFailsTheRun) {
  // `--metrics /dev/full` end to end. The .profile sidecar opens first:
  // an unprivileged run cannot create /dev/full.profile and fails there,
  // a privileged one creates it and then fails on the series itself.
  // Either way the run must end in the typed error, naming the path.
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find("e9_overhead_scaling");
  spec.metrics_path = "/dev/full";
  const std::string message =
      runtime_error_of([&] { run_point(spec, spec.seeds.front()); });
  std::remove("/dev/full.profile");
  EXPECT_NE(message.find("/dev/full"), std::string::npos) << message;
}

// ---- golden series + shard invariance + heap-engine pin --------------------

/// Runs a registered scenario at clusters=64 with the metrics series on
/// and returns the series file's bytes.
std::string run_series(const std::string& scenario, int shards,
                       const std::string& path) {
  exp::register_builtin_scenarios();
  ScenarioSpec spec = *exp::Registry::instance().find(scenario);
  spec.axes = {{"clusters", {AxisValue::of(64)}}};
  apply_axis(spec, "clusters", 64.0);
  spec.shards = shards;
  spec.metrics_path = path;
  const exp::RunResult result = run_point(spec, 1);
  EXPECT_EQ(result.series.files, 1u);
  EXPECT_GT(result.series.probes, 0u);
  EXPECT_GT(result.series.bytes, 0u);
  EXPECT_TRUE(result.monitor.enabled);  // monitored scenario
  return read_file(path);
}

TEST(MetricsSeries, GoldenFilePin) {
  const std::string path = temp_path("golden_metrics.jsonl");
  const std::string bytes =
      run_series("large_ring", 1, path);
  EXPECT_EQ(fnv1a(bytes), 0x5073449365e29148ull);
  EXPECT_EQ(bytes.size(), 2191u);

  // The pinned bytes parse back, carry the monitored schema, and never
  // recorded a violation.
  obs::SeriesData series;
  std::string error;
  ASSERT_TRUE(obs::load_series(path, &series, &error)) << error;
  EXPECT_GT(series.header.number("bound_local"), 0.0);
  EXPECT_GT(series.header.number("bound_global"), 0.0);
  for (const obs::JsonLine& row : series.rows) {
    EXPECT_EQ(row.number("violations", -1.0), 0.0);
    EXPECT_GE(row.number("margin_local", -1.0), 0.0);
  }
}

// The plane-separation pin: the monitored large_torus series (the
// heaviest registered workload, the acceptance target) must be
// byte-identical across --shards {1,2,4} and equal to the series the heap
// engine wrote. The profiler sidecar absorbs everything tier- or
// shard-dependent; if such a quantity ever leaks into the series, this
// fails at the first divergent probe.
TEST(MetricsSeries, TorusSeriesIdenticalAcrossShardsAndHeapPin) {
  const std::string base =
      run_series("large_torus", 1, temp_path("ms_s1.jsonl"));
  EXPECT_EQ(base, run_series("large_torus", 2, temp_path("ms_s2.jsonl")));
  EXPECT_EQ(base, run_series("large_torus", 4, temp_path("ms_s4.jsonl")));
  EXPECT_EQ(fnv1a(base), kTorusSeriesHeapPin);
  EXPECT_EQ(base.size(), kTorusSeriesHeapBytes);

  // ftgcs_report's differ must agree that the trajectories are equal.
  obs::SeriesData a;
  obs::SeriesData b;
  std::string error;
  ASSERT_TRUE(obs::load_series(temp_path("ms_s1.jsonl"), &a, &error)) << error;
  ASSERT_TRUE(obs::load_series(temp_path("ms_s4.jsonl"), &b, &error)) << error;
  std::ostringstream table;
  EXPECT_EQ(obs::render_diff(a, b, table), 0);
}

// ---- series reader grammar -------------------------------------------------

TEST(SeriesReader, ParsesFlatObjectsAndRejectsNesting) {
  obs::JsonLine line;
  std::string error;
  ASSERT_TRUE(obs::parse_json_line(
      R"({"t":1.5,"name":"x","ok":true,"gone":null,"n":-2e3})", &line,
      &error))
      << error;
  EXPECT_EQ(line.fields.size(), 5u);
  EXPECT_EQ(line.number("t"), 1.5);
  EXPECT_EQ(line.text("name"), "x");
  EXPECT_EQ(line.number("n"), -2000.0);
  EXPECT_EQ(line.find("gone")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(line.find("missing"), nullptr);

  // Structure smuggled into the series must break loudly, not parse.
  EXPECT_FALSE(obs::parse_json_line(R"({"a":{"b":1}})", &line, &error));
  EXPECT_FALSE(obs::parse_json_line(R"({"a":[1,2]})", &line, &error));
  EXPECT_FALSE(obs::parse_json_line(R"({"a":1)", &line, &error));
}

}  // namespace
}  // namespace ftgcs
