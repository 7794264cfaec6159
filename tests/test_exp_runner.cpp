// The exp/ engine's contract: a ScenarioSpec resolves to identical
// simulations on every replica, so sweep results are bit-identical at any
// thread count; the registry round-trips specs by name; sinks render the
// collected rows.
#include "exp/exp.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ftgcs::exp {
namespace {

/// A small but non-trivial scenario: ramp + faults + a 2x2 grid x 2 seeds.
ScenarioSpec small_scenario() {
  ScenarioSpec spec;
  spec.name = "test_small";
  spec.title = "determinism fixture";
  spec.ramp.gap_rounds = 2;
  spec.horizon.base_rounds = 12.0;
  spec.faults.mode = FaultMode::kUniform;
  spec.faults.count = -1;
  spec.faults.strategy = byz::StrategyKind::kTwoFaced;
  spec.faults.param_times_E = 1.0;
  spec.seeds = {1, 2};
  spec.axes = {
      {"clusters", {AxisValue::of(2), AxisValue::of(3)}},
      {"attacked", {AxisValue::named(0, "no"), AxisValue::named(1, "yes")}},
  };
  return spec;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const RunResult& lhs = a.rows[r];
    const RunResult& rhs = b.rows[r];
    EXPECT_EQ(lhs.point, rhs.point) << "row " << r;
    EXPECT_EQ(lhs.seed, rhs.seed) << "row " << r;
    ASSERT_EQ(lhs.metrics.size(), rhs.metrics.size()) << "row " << r;
    for (std::size_t m = 0; m < lhs.metrics.size(); ++m) {
      EXPECT_EQ(lhs.metrics[m].first, rhs.metrics[m].first)
          << "row " << r << " metric " << m;
      // Bit-identical, not approximately equal: the runner promises the
      // thread count cannot influence any simulation.
      EXPECT_EQ(lhs.metrics[m].second, rhs.metrics[m].second)
          << "row " << r << " metric " << lhs.metrics[m].first;
    }
  }
}

TEST(SweepRunner, DeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = small_scenario();
  const SweepResult serial = SweepRunner({1}).run(spec);
  const SweepResult two = SweepRunner({2}).run(spec);
  const SweepResult eight = SweepRunner({8}).run(spec);
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

TEST(SweepRunner, RepeatedRunsAreIdentical) {
  const ScenarioSpec spec = small_scenario();
  expect_identical(SweepRunner({3}).run(spec), SweepRunner({3}).run(spec));
}

TEST(SweepRunner, GridOrderIsRowMajorWithSeedsInnermost) {
  const SweepResult result = SweepRunner({1}).run(small_scenario());
  // 2 clusters-values x 2 attacked-values x 2 seeds.
  ASSERT_EQ(result.rows.size(), 8u);
  EXPECT_EQ(result.axis_names,
            (std::vector<std::string>{"clusters", "attacked", "seed"}));
  EXPECT_EQ(result.rows[0].point[0].second, "2");
  EXPECT_EQ(result.rows[0].point[1].second, "no");
  EXPECT_EQ(result.rows[0].seed, 1u);
  EXPECT_EQ(result.rows[1].seed, 2u);
  EXPECT_EQ(result.rows[2].point[1].second, "yes");
  EXPECT_EQ(result.rows[4].point[0].second, "3");
}

TEST(SweepRunner, AttackedAxisTogglesTheFaultPlan) {
  ScenarioSpec off = small_scenario();
  apply_axis(off, "clusters", 3);
  apply_axis(off, "attacked", 0);
  EXPECT_TRUE(resolve(off, 1).fault_plan.empty());

  ScenarioSpec on = small_scenario();
  apply_axis(on, "clusters", 3);
  apply_axis(on, "attacked", 1);
  // One two-faced fault (the full f=1 budget) per cluster.
  EXPECT_EQ(resolve(on, 1).fault_plan.size(), 3u);
}

TEST(SweepRunner, WorstOverSeedsCollapsesSeedRows) {
  ScenarioSpec spec = small_scenario();
  spec.aggregation = SeedAggregation::kWorstOverSeeds;
  const SweepResult per_seed = SweepRunner({1}).run(small_scenario());
  const SweepResult worst = SweepRunner({1}).run(spec);
  ASSERT_EQ(worst.rows.size(), 4u);
  EXPECT_EQ(worst.axis_names,
            (std::vector<std::string>{"clusters", "attacked"}));
  // The collapsed row's max_local is the max of its two seed rows.
  const double expected = std::max(per_seed.rows[0].metric("max_local"),
                                   per_seed.rows[1].metric("max_local"));
  EXPECT_EQ(worst.rows[0].metric("max_local"), expected);
  // Counters sum instead.
  EXPECT_EQ(worst.rows[0].metric("messages"),
            per_seed.rows[0].metric("messages") +
                per_seed.rows[1].metric("messages"));
}

TEST(Registry, RoundTripsSpecsByName) {
  Registry& registry = Registry::instance();
  ScenarioSpec spec = small_scenario();
  spec.name = "test_round_trip";
  spec.description = "registry fixture";
  registry.add(spec);

  const ScenarioSpec* found = registry.find("test_round_trip");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, spec.name);
  EXPECT_EQ(found->title, spec.title);
  EXPECT_EQ(found->description, spec.description);
  EXPECT_EQ(found->seeds, spec.seeds);
  EXPECT_EQ(found->ramp.gap_rounds, spec.ramp.gap_rounds);
  ASSERT_EQ(found->axes.size(), spec.axes.size());
  EXPECT_EQ(found->axes[0].name, "clusters");
  EXPECT_EQ(found->axes[1].values[1].label, "yes");

  // The registered copy runs exactly like the original value.
  expect_identical(SweepRunner({1}).run(*found), SweepRunner({1}).run(spec));

  // Replacement by name, not duplication.
  const std::size_t size = registry.size();
  spec.title = "updated";
  registry.add(spec);
  EXPECT_EQ(registry.size(), size);
  EXPECT_EQ(registry.find("test_round_trip")->title, "updated");
}

TEST(Registry, BuiltinsRegisterAndResolve) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  for (const char* name :
       {"e1_local_skew_vs_diameter", "e1_gradient_scale",
        "e4_fault_tolerance_boundary", "e6_global_skew_drain",
        "e6_split_drift_containment", "e9_overhead_scaling",
        "e8_gcs_pump_baseline"}) {
    const ScenarioSpec* spec = Registry::instance().find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_GT(spec->num_tasks(), 0u) << name;
    // Every grid point must resolve without throwing.
    ScenarioSpec point = *spec;
    for (const auto& axis : spec->axes) {
      apply_axis(point, axis.name, axis.values.front().value);
    }
    const ResolvedRun run = resolve(point, spec->seeds.front());
    EXPECT_GT(run.horizon_rounds, 0.0) << name;
    EXPECT_TRUE(run.graph.connected()) << name;
  }
}

TEST(Scenario, AxisApplicationCoversDocumentedNames) {
  ScenarioSpec spec;
  apply_axis(spec, "diameter", 8);
  EXPECT_EQ(spec.topology.a, 9);
  apply_axis(spec, "clusters", 5);
  EXPECT_EQ(spec.topology.a, 5);
  apply_axis(spec, "gap_rounds", 3);
  EXPECT_EQ(spec.ramp.gap_rounds, 3);
  apply_axis(spec, "f", 2);
  EXPECT_EQ(spec.params.f, 2);
  apply_axis(spec, "faults_per_cluster", 1);
  EXPECT_EQ(spec.faults.count, 1);
  apply_axis(spec, "strategy",
             static_cast<double>(static_cast<int>(
                 byz::StrategyKind::kEquivocator)));
  EXPECT_EQ(spec.faults.strategy, byz::StrategyKind::kEquivocator);
  apply_axis(spec, "attacked", 0);
  EXPECT_FALSE(spec.faults.enabled);
  apply_axis(spec, "horizon_rounds", 42);
  EXPECT_DOUBLE_EQ(spec.horizon.base_rounds, 42.0);
  EXPECT_THROW(apply_axis(spec, "no_such_axis", 1.0),
               std::invalid_argument);

  // A torus needs both sides >= 3: 1009 (prime, 1×1009) and 10 (2×5) are
  // typed errors, not a contract abort in Graph::torus.
  spec.topology.kind = TopologyKind::kTorus;
  apply_axis(spec, "clusters", 12);
  EXPECT_EQ(spec.topology.a, 3);
  EXPECT_EQ(spec.topology.b, 4);
  EXPECT_THROW(apply_axis(spec, "clusters", 10), std::invalid_argument);
  try {
    apply_axis(spec, "clusters", 1009);
    ADD_FAILURE() << "clusters=1009 on a torus must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("1009"), std::string::npos);
  }
  EXPECT_EQ(spec.topology.a, 3);  // a rejected value leaves the spec as is
  EXPECT_EQ(spec.topology.b, 4);

  // Integer axes reject non-finite, fractional, out-of-int and
  // out-of-range values with a typed error naming the axis and the value
  // (these used to abort in an enum switch, overflow std::llround, or run
  // silently with a meaningless count).
  const auto expect_rejected = [&spec](const std::string& axis, double value,
                                       const std::string& shown) {
    try {
      apply_axis(spec, axis, value);
      ADD_FAILURE() << axis << "=" << shown << " must throw";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(axis), std::string::npos) << what;
      EXPECT_NE(what.find(shown), std::string::npos) << what;
    }
  };
  EXPECT_THROW(apply_axis(spec, "fault_mode", 9), std::invalid_argument);
  expect_rejected("fault_mode", 9, "9");
  expect_rejected("fault_mode", -1, "-1");
  expect_rejected("strategy", 99, "99");
  expect_rejected("strategy", -1, "-1");
  expect_rejected("f", -1, "-1");
  expect_rejected("diameter", 0, "0");
  expect_rejected("diameter", 1e99, "1e+99");
  expect_rejected("diameter", 2.5, "2.5");
  expect_rejected("diameter", std::numeric_limits<double>::infinity(), "inf");
  expect_rejected("diameter", std::numeric_limits<double>::quiet_NaN(),
                  "nan");
  expect_rejected("clusters", 3e9, "3e+09");
  expect_rejected("shards", -2, "-2");
  expect_rejected("shards", 0, "0");
  expect_rejected("faults_per_cluster", -3, "-3");
  // The boundaries themselves are accepted.
  apply_axis(spec, "fault_mode", static_cast<double>(FaultMode::kIid));
  EXPECT_EQ(spec.faults.mode, FaultMode::kIid);
  apply_axis(spec, "strategy",
             static_cast<double>(byz::StrategyKind::kDelayJitter));
  EXPECT_EQ(spec.faults.strategy, byz::StrategyKind::kDelayJitter);
  apply_axis(spec, "shards", 1);
  EXPECT_EQ(spec.shards, 1);
  apply_axis(spec, "f", 0);
  EXPECT_EQ(spec.params.f, 0);
  apply_axis(spec, "faults_per_cluster", 0);
  EXPECT_EQ(spec.faults.count, 0);
}

TEST(Scenario, ClusterSizeBelowThreeFPlusOneIsATypedError) {
  // cluster_size and f are separate axes, so k >= 3f + 1 is checked when
  // the spec is resolved; it used to abort in Params::with_cluster_size.
  register_builtin_scenarios();
  const ScenarioSpec* registered =
      Registry::instance().find("e1_local_skew_vs_diameter");
  ASSERT_NE(registered, nullptr);
  ScenarioSpec spec = *registered;
  apply_axis(spec, "diameter", spec.axes.front().values.front().value);
  for (const int size : {1, 2, 3}) {
    apply_axis(spec, "cluster_size", size);
    EXPECT_THROW(spec.params.build(), std::invalid_argument) << size;
    try {
      (void)resolve(spec, 1);
      ADD_FAILURE() << "cluster_size=" << size << " with f=1 must throw";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("cluster_size = " + std::to_string(size)),
                std::string::npos) << what;
      EXPECT_NE(what.find("3f + 1 = 4"), std::string::npos) << what;
    }
  }
  apply_axis(spec, "f", 2);
  apply_axis(spec, "cluster_size", 4);
  EXPECT_THROW(spec.params.build(), std::invalid_argument);
  apply_axis(spec, "cluster_size", 7);
  EXPECT_EQ(spec.params.build().k, 7);
  apply_axis(spec, "cluster_size", 0);  // 0 = derived 3f + 1
  EXPECT_EQ(spec.params.build().k, 7);
}

TEST(Sinks, AllThreeRenderEveryRow) {
  ScenarioSpec spec = small_scenario();
  spec.axes = {{"clusters", {AxisValue::of(2)}}};
  spec.seeds = {1};
  const SweepResult result = SweepRunner({1}).run(spec);

  std::ostringstream table;
  TableSink().write(result, table);
  EXPECT_NE(table.str().find("max_local"), std::string::npos);

  std::ostringstream csv;
  CsvSink().write(result, csv);
  EXPECT_NE(csv.str().find("clusters,"), std::string::npos);

  std::ostringstream jsonl;
  JsonLinesSink().write(result, jsonl);
  EXPECT_NE(jsonl.str().find("\"scenario\":\"test_small\""),
            std::string::npos);
  EXPECT_NE(jsonl.str().find("\"metrics\":{"), std::string::npos);

  EXPECT_THROW(make_sink("bogus"), std::invalid_argument);
  EXPECT_NE(make_sink("table"), nullptr);
  EXPECT_NE(make_sink("csv"), nullptr);
  EXPECT_NE(make_sink("jsonl"), nullptr);
}

TEST(RampShim, EngineMatchesAnalyticRampHeight) {
  // The bench_util ramp helpers route through ResolvedRun; the engine's
  // S_init metric must equal the analytic ramp height (|C|-1)*gap*T.
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  ScenarioSpec spec;
  spec.name = "ramp_shim";
  spec.topology.a = 4;
  spec.ramp.gap_rounds = 3;
  spec.horizon.base_rounds = 10.0;
  const RunResult result = run_point(spec, 1);
  EXPECT_DOUBLE_EQ(result.metric("S_init"), 3 * 3 * params.T);
  EXPECT_GT(result.metric("messages"), 0.0);
  EXPECT_EQ(result.metric("violations"), 0.0);
}

}  // namespace
}  // namespace ftgcs::exp
