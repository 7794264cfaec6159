// The one merge rule of the diagnostics counters: a sweep's totals are the
// field-wise merge of its rows, and a sharded run's queue stats are the
// field-wise merge of its shards' queues. The expected rules are written
// out here, independently of each_field(), so a rule flipped in a field
// list (max ↔ sum) fails instead of agreeing with itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/params.h"
#include "exp/exp.h"
#include "net/graph.h"
#include "par/sharded_system.h"
#include "support/stats_fields.h"

namespace ftgcs {
namespace {

using support::Merge;
using Rules = std::map<std::string, Merge>;

const Rules kTierRules = {
    {"bucket_count", Merge::kMax},    {"rung_spawns", Merge::kSum},
    {"overflow_peak", Merge::kMax},   {"overflow_pushes", Merge::kSum},
    {"reseeds", Merge::kSum},         {"ordered_run_events", Merge::kSum},
    {"narrow_events", Merge::kSum},   {"wide_events", Merge::kSum},
    {"group_inserts", Merge::kSum},   {"sorts", Merge::kSum},
    {"sorted_entries", Merge::kSum},  {"rewindows", Merge::kSum},
};

const Rules kShardRules = {
    {"shards", Merge::kMax},        {"cut_edges", Merge::kMax},
    {"min_cut_delay", Merge::kMin}, {"windows", Merge::kSum},
    {"mailbox_peak", Merge::kMax},
};

/// Checks that `total` is the merge of `parts` under `rules`, for every
/// field of the list and for no field outside `rules`.
template <class Stats>
void expect_merge_of(const std::vector<Stats>& parts, const Stats& total,
                     const Rules& rules) {
  ASSERT_FALSE(parts.empty());
  std::size_t visited = 0;
  Stats::each_field([&](const char* name, auto field, Merge listed) {
    ++visited;
    const auto rule = rules.find(name);
    ASSERT_NE(rule, rules.end()) << "unexpected field " << name;
    EXPECT_EQ(listed, rule->second) << name;
    auto expected = parts.front().*field;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const auto value = parts[i].*field;
      switch (rule->second) {
        case Merge::kSum:
          expected += value;
          break;
        case Merge::kMax:
          expected = std::max(expected, value);
          break;
        case Merge::kMin:
          expected = std::min(expected, value);
          break;
      }
    }
    EXPECT_EQ(total.*field, expected) << name;
  });
  EXPECT_EQ(visited, rules.size());
}

TEST(StatsMerge, SweepTotalsAreTheMergeOfTheirRows) {
  exp::register_builtin_scenarios();
  exp::ScenarioSpec spec = *exp::Registry::instance().find("large_ring");
  spec.axes = {{"clusters",
                {exp::AxisValue::of(16), exp::AxisValue::of(24),
                 exp::AxisValue::of(32)}}};
  spec.seeds = {1};
  spec.shards = 2;
  const exp::SweepResult sweep = exp::SweepRunner({2}).run(spec);
  ASSERT_EQ(sweep.rows.size(), 3u);

  std::vector<sim::EventQueue::TierStats> queues;
  std::vector<par::ShardedFtGcsSystem::ShardStats> shards;
  for (const exp::RunResult& row : sweep.rows) {
    // Each rule is exercised: distinct per-row sizes, so a maximum and a
    // sum of them differ, and the overflow tier carried traffic.
    EXPECT_GT(row.queue.overflow_pushes, 0u);
    EXPECT_EQ(row.shard.shards, 2);
    queues.push_back(row.queue);
    shards.push_back(row.shard);
  }
  EXPECT_NE(queues[0].bucket_count, queues[2].bucket_count);
  expect_merge_of(queues, sweep.queue, kTierRules);
  expect_merge_of(shards, sweep.shard, kShardRules);
}

TEST(StatsMerge, ShardedQueueStatsAreTheMergeOfTheShardQueues) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  par::ShardedFtGcsSystem::Config config;
  config.params = params;
  config.seed = 3;
  config.shards = 2;
  par::ShardedFtGcsSystem system(net::Graph::ring(16), std::move(config));
  ASSERT_EQ(system.num_shards(), 2);
  system.start();
  system.run_until(6.0 * params.T);

  std::vector<sim::EventQueue::TierStats> parts;
  for (int s = 0; s < system.num_shards(); ++s) {
    parts.push_back(system.shard(s).simulator().queue_stats());
    EXPECT_GT(parts.back().narrow_events, 0u) << "shard " << s;
  }
  expect_merge_of(parts, system.queue_stats(), kTierRules);
}

}  // namespace
}  // namespace ftgcs
