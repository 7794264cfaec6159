// Golden-trace pin for the typed event engine.
//
// The engine swap (typed slot-pooled queue, batched broadcast, in-place
// timer reschedule) is required to preserve equal-time FIFO ordering and
// per-stream RNG draw order EXACTLY. This test pins the E6 global-skew
// scenario (diameter 2, seed 5) to metric values recorded from the
// pre-swap std::function/unordered_map engine: the event and message
// counts fingerprint the whole schedule (any ordering or RNG change shifts
// them), and the skew metrics depend on every delivery timestamp, so a
// match here means the old and new engines execute the same trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "exp/exp.h"
#include "pins.h"

namespace ftgcs::exp {
namespace {

// Fingerprints recorded from the heap engine at the last commit that had
// it; see tests/pins.h.
constexpr std::uint64_t kLargeRingMetricsPin = 0xcdc9e8f3d2fcfc51ull;
constexpr std::uint64_t kE9SweepPin = 0xc17be0c0fb02d479ull;

std::string sig(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

TEST(EngineTrace, E6GlobalSkewDrainMatchesPreSwapEngine) {
  register_builtin_scenarios();
  const ScenarioSpec* registered =
      Registry::instance().find("e6_global_skew_drain");
  ASSERT_NE(registered, nullptr);

  // This pin also proves the calendar queue replays the seed engine's
  // trace exactly.
  ScenarioSpec spec = *registered;
  apply_axis(spec, "diameter", 2.0);
  const RunResult result = run_point(spec, /*seed=*/5);

  // Golden values measured on the seed engine (commit 378de92) with the
  // identical spec. Do not update these casually: a diff means the event
  // schedule is no longer bit-identical to the original semantics.
  EXPECT_EQ(result.metric("events"), 1342939.0);
  EXPECT_EQ(result.metric("messages"), 1110128.0);
  EXPECT_EQ(sig(result.metric("S_init")), "129.365285736");
  EXPECT_EQ(sig(result.metric("max_local")), "64.8388502118");
  EXPECT_EQ(sig(result.metric("max_global")), "129.324824038");
  EXPECT_EQ(sig(result.metric("final_global")), "22.0105825273");
  EXPECT_EQ(sig(result.metric("max_intra")), "0.12785914546");
  EXPECT_EQ(result.metric("violations"), 0.0);
  EXPECT_EQ(result.metric("in_global_band"), 1.0);
}

// Large-ring pin at production scale (1000 clusters, 4000 nodes): the
// whole metric vector must equal the one the ordered heap engine produced
// for the same spec (recorded as a fingerprint before that engine was
// deleted; it executed the same trace as the PR 2 engine), and the key
// figures stay spelled out. Any divergence in pop order, RNG draw order,
// or delivery timestamps shifts the event/message counts or the skews.
TEST(EngineTrace, LargeRingMatchesHeapEnginePin) {
  register_builtin_scenarios();
  const ScenarioSpec* registered = Registry::instance().find("large_ring");
  ASSERT_NE(registered, nullptr);

  ScenarioSpec spec = *registered;
  spec.axes = {{"clusters", {AxisValue::of(1000)}}};
  apply_axis(spec, "clusters", 1000.0);
  const RunResult result = run_point(spec, /*seed=*/1);

  EXPECT_EQ(pins::fnv1a(pins::metrics_text(result)), kLargeRingMetricsPin)
      << pins::metrics_text(result);
  EXPECT_EQ(result.metric("events"), 7560896.0);
  EXPECT_EQ(result.metric("messages"), 6239700.0);
  EXPECT_EQ(sig(result.metric("max_local")), "0.100114488244");
  EXPECT_EQ(sig(result.metric("max_global")), "0.137683505238");
}

// Cheap full-grid pin: every metric of every row of the registered E9
// sweep must equal the heap engine's table (the guarantee that deleting
// that engine changed no registered table).
TEST(EngineTrace, E9OverheadScalingMatchesHeapEnginePin) {
  register_builtin_scenarios();
  const ScenarioSpec* registered =
      Registry::instance().find("e9_overhead_scaling");
  ASSERT_NE(registered, nullptr);

  SweepRunner runner({1, false});
  const SweepResult result = runner.run(*registered);
  EXPECT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(pins::fnv1a(pins::sweep_text(result)), kE9SweepPin)
      << pins::sweep_text(result);
}

}  // namespace
}  // namespace ftgcs::exp
