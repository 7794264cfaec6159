// One field list per diagnostics struct.
//
// A diagnostics struct (sim::EventQueue::TierStats,
// par::ShardedFtGcsSystem::ShardStats, the exp::RunResult output
// summaries) names each of its counters exactly once, in a static
//
//   template <class F> static void each_field(F&& f);
//
// that calls f(name, &Struct::field, rule) per counter. The merge over
// shards and over sweep tasks, the `--timing` footer and the profile's
// diag row all walk that list, so a counter added to the struct and its
// list is merged and printed everywhere, and one left out of the list is
// merged and printed nowhere.
#pragma once

#include <algorithm>

namespace ftgcs::support {

/// How two values of one counter combine (two shards of one run, or two
/// tasks of one sweep).
enum class Merge { kSum, kMax, kMin };

/// Merges `part` into `total` field by field. Every listed field defaults
/// to the identity of its rule (0 for sums and maxima of non-negative
/// counters, +inf for minima), so merging rows into a default-constructed
/// total is exact.
template <class Stats>
void merge_stats(Stats& total, const Stats& part) {
  Stats::each_field([&](const char*, auto field, Merge rule) {
    auto& into = total.*field;
    const auto& from = part.*field;
    switch (rule) {
      case Merge::kSum:
        into += from;
        break;
      case Merge::kMax:
        into = std::max(into, from);
        break;
      case Merge::kMin:
        into = std::min(into, from);
        break;
    }
  });
}

}  // namespace ftgcs::support
