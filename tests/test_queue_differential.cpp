// Randomized differential test: the ladder queue must pop the exact same
// (time, payload) sequence as the ordered oracle (tests/queue_oracle.h)
// under any interleaving of schedule / cancel / reschedule / pop, and
// consume sequence numbers exactly as the oracle does.
//
// One RNG decides an op stream that is executed against both queues in
// lockstep. The time distribution is deliberately nasty for a calendar
// queue: dense near-future clusters (many events per bucket → rung
// spawns), far-future spikes (overflow tier + horizon rollovers when the
// window reseeds past them), exact ties (FIFO order), and occasional times
// below the last popped time (the drain-bucket clamp path). Pop bursts
// drag the window across many bucket-width boundaries and reseeds.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "queue_oracle.h"
#include "sim/rng.h"

namespace ftgcs::sim {
namespace {

using testing::QueueOracle;

struct Pair {
  QueueOracle::Id oracle_id;
  EventId ladder_id;
};

class Differ {
 public:
  void schedule(Time t, std::int32_t tag) {
    EventPayload payload;
    payload.a = tag;
    payload.x = t;
    Pair pair;
    pair.oracle_id = oracle_.schedule_typed(t, EventKind::kTimer, 0, payload);
    pair.ladder_id = ladder_.schedule_typed(t, EventKind::kTimer, 0, payload);
    live_.push_back(pair);
    check_sizes();
  }

  /// Fire-only events interleave with cancellable ones in the same
  /// (time, seq) order space. `x = t` makes the queue store them in a slot
  /// (an inline entry has no room for x); schedule_inline takes the inline
  /// 32-byte entry path instead.
  void schedule_fire_only(Time t, std::int32_t tag) {
    EventPayload payload;
    payload.a = tag;
    payload.x = t;
    oracle_.schedule_fire_only(t, EventKind::kPulse, 0, payload);
    ladder_.schedule_fire_only(t, EventKind::kPulse, 0, payload);
    check_sizes();
  }

  void schedule_inline(Time t, std::int32_t tag) {
    EventPayload payload;
    payload.a = tag;
    payload.b = ~tag;
    oracle_.schedule_fire_only(t, EventKind::kPulse, 0, payload);
    ladder_.schedule_fire_only(t, EventKind::kPulse, 0, payload);
    check_sizes();
  }

  /// Coalesced fan-out group: narrow 16 B entries in the ladder, one
  /// event per delivery in the oracle — both must consume the same seq
  /// range and pop the same (time, payload) sequence. The dest arrays
  /// live in a deque so the pointers the ladder borrows stay stable for
  /// the queue's whole lifetime.
  void schedule_group(Time base, const std::vector<Duration>& delays,
                      std::int32_t tag) {
    EventPayload proto;
    proto.a = tag;
    proto.b = tag ^ 0x5a5a;
    proto.d = static_cast<std::uint32_t>(delays.size());
    dests_.emplace_back();
    std::vector<std::int32_t>& rest = dests_.back();
    for (std::size_t i = 1; i < delays.size(); ++i) {
      rest.push_back(tag + static_cast<std::int32_t>(i));
    }
    oracle_.schedule_fire_only_group(base, delays.data(), delays.size(),
                                     EventKind::kPulse, 0, proto, tag,
                                     rest.data());
    ladder_.schedule_fire_only_group(base, delays.data(), delays.size(),
                                     EventKind::kPulse, 0, proto, tag,
                                     rest.data());
    check_sizes();
  }

  void cancel(std::size_t index) {
    const Pair pair = take(index);
    const bool a = oracle_.cancel(pair.oracle_id);
    const bool b = ladder_.cancel(pair.ladder_id);
    ASSERT_EQ(a, b);
    check_sizes();
  }

  void reschedule(std::size_t index, Time t) {
    const Pair& pair = live_[index];
    const bool a = oracle_.reschedule(pair.oracle_id, t);
    const bool b = ladder_.reschedule(pair.ladder_id, t);
    ASSERT_EQ(a, b);
    check_sizes();
  }

  /// Pops one event from both queues and asserts identical observations.
  /// Returns the popped time so the driver can track "now".
  Time pop() {
    EXPECT_FALSE(oracle_.empty());
    EXPECT_FALSE(ladder_.empty());
    const auto a = oracle_.pop();
    const auto b = ladder_.pop();
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.sink, b.sink);
    EXPECT_EQ(a.payload.a, b.payload.a);
    EXPECT_EQ(a.payload.b, b.payload.b);
    EXPECT_EQ(a.payload.c, b.payload.c);  // narrow group decode
    EXPECT_EQ(a.payload.d, b.payload.d);
    EXPECT_EQ(a.payload.x, b.payload.x);
    // The popped event's ids become stale in both queues; drop the pair.
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (a.id != 0 && live_[i].oracle_id == a.id) {
        EXPECT_EQ(live_[i].ladder_id, b.id);
        live_[i] = live_.back();
        live_.pop_back();
        break;
      }
    }
    check_sizes();
    return a.at;
  }

  void check_next_time() {
    EXPECT_EQ(oracle_.next_time(), ladder_.next_time());
  }

  std::size_t live_count() const { return live_.size(); }
  bool empty() const { return oracle_.empty(); }
  const EventQueue& ladder() const { return ladder_; }

 private:
  Pair take(std::size_t index) {
    const Pair pair = live_[index];
    live_[index] = live_.back();
    live_.pop_back();
    return pair;
  }

  void check_sizes() {
    ASSERT_EQ(oracle_.size(), ladder_.size());
    ASSERT_EQ(oracle_.empty(), ladder_.empty());
    ASSERT_EQ(oracle_.scheduled_count(), ladder_.scheduled_count());
  }

  QueueOracle oracle_;
  EventQueue ladder_;
  std::vector<Pair> live_;
  /// Group dest arrays; deque keeps the borrowed pointers stable.
  std::deque<std::vector<std::int32_t>> dests_;
};

/// Draws a scheduling time around `now` from a mixture built to cross
/// every tier boundary of the ladder backend.
Time draw_time(Rng& rng, Time now) {
  const double pick = rng.next_double();
  if (pick < 0.35) return now + rng.next_double();            // near future
  if (pick < 0.55) return now + 0.5;                          // exact ties
  if (pick < 0.70) return now + rng.next_double() * 1e-6;     // dense cluster
  if (pick < 0.80) return now + 100.0 + rng.next_double();    // mid horizon
  if (pick < 0.90) return now + 1e5 * (1.0 + rng.next_double());  // far spike
  // Slightly below the frontier: by the time this fires, pops may have
  // advanced past it — the drain-bucket clamp path.
  return now * (1.0 - 1e-9 * rng.next_double());
}

TEST(QueueDifferential, RandomOpStreamPopsIdentically) {
  Rng rng(2024);
  Differ d;
  Time now = 0.0;
  std::uint64_t popped = 0;
  int bursts = 0;
  for (int op = 0; op < 25000; ++op) {
    const double pick = rng.next_double();
    if (pick < 0.28 || d.live_count() == 0) {
      d.schedule(draw_time(rng, now), op);
    } else if (pick < 0.40) {
      d.schedule_fire_only(draw_time(rng, now), op);
    } else if (pick < 0.50) {
      // Coalesced fan-out whose delays straddle the tier boundaries:
      // near-future (wheel), dense (rung-bound buckets) and far spikes
      // (narrow overflow bag + reseed distribution).
      std::vector<Duration> delays(1 + rng.below(8));
      for (Duration& delay : delays) {
        const double shape = rng.next_double();
        if (shape < 0.5) {
          delay = rng.next_double();
        } else if (shape < 0.8) {
          delay = 1e-6 * rng.next_double();
        } else {
          delay = 1e5 * rng.next_double();
        }
      }
      d.schedule_group(now, delays, op * 100);
    } else if (pick < 0.60) {
      d.cancel(rng.below(d.live_count()));
    } else if (pick < 0.72) {
      d.reschedule(rng.below(d.live_count()),
                   draw_time(rng, now));
    } else if (pick < 0.75) {
      // Pop burst: drain a chunk so the window sweeps whole bucket ranges
      // and occasionally empties entirely (reseed from the overflow tier).
      const int burst = 1 + static_cast<int>(rng.below(200));
      for (int i = 0; i < burst && !d.empty(); ++i) now = d.pop(), ++popped;
    } else if (pick < 0.78) {
      // Schedule burst into one microsecond-wide cluster while far spikes
      // stretch the window: piles many events into one bucket, which must
      // split into a rung on drain. Every 64th burst piles more than the
      // rung threshold (2048) on its own, so the rung tier stays covered
      // however fine a rewindow made the buckets; its extra entries are
      // fire-only (no live-pair bookkeeping).
      const Time cluster = now + 50.0 + rng.next_double();
      const int pile = bursts++ % 64 == 0 ? 2100 : 100;
      for (int i = 100; i < pile; ++i) {
        d.schedule_fire_only(cluster + 1e-6 * rng.next_double(),
                             op * 1000 + i);
      }
      for (int i = 0; i < 100; ++i) {
        if (i % 3 == 0) {
          d.schedule(cluster + 1e-6 * rng.next_double(), op * 1000 + i);
        } else if (i % 3 == 1) {
          d.schedule_fire_only(cluster + 1e-6 * rng.next_double(),
                               op * 1000 + i);
        } else {
          // Narrow entries must ride the same bucket splits: pile group
          // members into the cluster so rung spawns see both lanes.
          const std::vector<Duration> delays = {
              (cluster - now) + 1e-6 * rng.next_double(),
              (cluster - now) + 1e-6 * rng.next_double(),
              (cluster - now) + 1e-6 * rng.next_double()};
          d.schedule_group(now, delays, op * 1000 + i);
        }
      }
    } else if (pick < 0.98) {
      if (!d.empty()) now = d.pop(), ++popped;
    } else {
      d.check_next_time();
    }
  }
  while (!d.empty()) now = d.pop(), ++popped;
  EXPECT_EQ(d.live_count(), 0u);
  EXPECT_GT(popped, 20000u);
  // The stream must actually have exercised every ladder tier — and both
  // entry widths (narrow group deliveries AND wide slotted/fire-only).
  const auto& stats = d.ladder().tier_stats();
  EXPECT_GT(stats.reseeds, 1u);
  EXPECT_GT(stats.rung_spawns, 0u);
  EXPECT_GT(stats.rewindows, 0u);  // the near-future mixture heats the head
  EXPECT_GT(stats.overflow_peak, 0u);
  EXPECT_GT(stats.group_inserts, 0u);
  EXPECT_GT(stats.narrow_events, 0u);
  EXPECT_GT(stats.wide_events, 0u);
}

TEST(QueueDifferential, EqualTimeNarrowAndWideEntriesMergeBySeq) {
  // Exact ties ACROSS the two bucket lanes: fan-out deliveries (narrow
  // lane) and slotted and inline entries (wide lane) land on the very
  // same instants, so the pop-time lane merge must break every tie by
  // sequence number. All times sit on a 0.25 grid, where the sums stay
  // exact.
  Rng rng(17);
  Differ d;
  Time now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    const Time at = now + 0.25 * static_cast<double>(1 + rng.below(4));
    const double pick = rng.next_double();
    if (pick < 0.25) {
      d.schedule(at, step);
    } else if (pick < 0.4) {
      d.schedule_fire_only(at, step);
    } else if (pick < 0.55) {
      d.schedule_inline(at, step);
    } else {
      const std::vector<Duration> delays(1 + rng.below(6), at - now);
      d.schedule_group(now, delays, step * 10);
    }
    if (step % 3 == 2) now = d.pop();
  }
  while (!d.empty()) now = d.pop();
  EXPECT_GT(d.ladder().tier_stats().narrow_events, 0u);
}

TEST(QueueDifferential, MonotoneSimulationShapedStream) {
  // The simulator-shaped workload: times only in [now, now + horizon],
  // reschedules dominate (timer re-aim), pops advance now monotonically.
  Rng rng(7);
  Differ d;
  Time now = 0.0;
  for (int round = 0; round < 2000; ++round) {
    for (int i = 0; i < 8; ++i) {
      d.schedule(now + 0.9 + 0.2 * rng.next_double(), round * 8 + i);
    }
    for (int i = 0; i < 4 && d.live_count() > 0; ++i) {
      d.reschedule(rng.below(d.live_count()),
                   now + 0.9 + 0.2 * rng.next_double());
    }
    for (int i = 0; i < 8 && !d.empty(); ++i) now = d.pop();
  }
  while (!d.empty()) now = d.pop();
  EXPECT_EQ(d.live_count(), 0u);
}

TEST(QueueDifferential, SparseRegimeRewindowsAndPopsIdentically) {
  // The paper-strict shape: a handful of cancellable timers ~1e5 delays
  // out (round timers) set the reseed span, while ~80 deliveries with
  // delays in [0.999, 1] stay in flight next to the drain position. The
  // span-derived window puts all of them in the head bucket, so every
  // pop would re-sort it; the hot-head trigger must rebuild the window
  // around the head's own density — without changing a single pop.
  Rng rng(11);
  Differ d;
  Time now = 0.0;
  const auto far_time = [&rng](Time at) {
    return at + 1e5 * (1.0 + rng.next_double());
  };
  for (int i = 0; i < 6; ++i) d.schedule(far_time(now), i);
  const auto deliver = [&d, &rng](Time at, std::int32_t tag) {
    std::vector<Duration> delays(8);
    for (Duration& delay : delays) delay = 0.999 + 1e-3 * rng.next_double();
    d.schedule_group(at, delays, tag);
  };
  for (int i = 0; i < 10; ++i) deliver(rng.next_double(), 1000 + i);
  std::uint64_t popped = 0;
  for (int step = 0; step < 120000; ++step) {
    now = d.pop();
    ++popped;
    // Every delivery is replaced one for one: a broadcast of 8 per 8
    // pops, alternating with single fire-only sends.
    if (step % 8 == 0) {
      deliver(now, 2000 + step);
    }
    if (step % 97 == 0) {
      // Re-aim a bag-resident timer (stays far: the in-place bag path).
      d.reschedule(rng.below(d.live_count()), far_time(now));
    }
    if (step % 499 == 0) {
      // Cancel one from the bag and arm a replacement.
      d.cancel(rng.below(d.live_count()));
      d.schedule(far_time(now), 3000 + step);
    }
  }
  const auto& stats = d.ladder().tier_stats();
  EXPECT_GT(stats.rewindows, 0u);
  // ~80 entries re-sorted per pop before the rebuild; ≤ 2 over the run.
  EXPECT_LE(stats.sorted_entries, 2 * popped);
  while (!d.empty()) now = d.pop();
}

TEST(QueueDifferential, NarrowWindowFallsBackWhenTrafficThins) {
  // After a rewindow the narrow width is kept across reseeds — until the
  // near-future traffic thins out so far that a reseed moves only a few
  // entries out of a bag of far timers. Then the width must fall back to
  // the span-derived one instead of paying a bag scan per event.
  Rng rng(13);
  Differ d;
  Time now = 0.0;
  for (int i = 0; i < 200; ++i) d.schedule(1e5 * (1.0 + rng.next_double()), i);
  const auto deliver = [&d, &rng](Time at, std::int32_t tag) {
    std::vector<Duration> delays(8);
    for (Duration& delay : delays) delay = 0.999 + 1e-3 * rng.next_double();
    d.schedule_group(at, delays, tag);
  };
  for (int i = 0; i < 10; ++i) deliver(rng.next_double(), 1000 + i);
  for (int step = 0; step < 20000; ++step) {
    now = d.pop();
    if (step % 8 == 0) deliver(now, 2000 + step);
  }
  ASSERT_GT(d.ladder().tier_stats().rewindows, 0u);
  // Let the dense traffic drain, then send one event per 10 time units.
  while (d.ladder().size() > 200) now = d.pop();
  const std::uint64_t reseeds = d.ladder().tier_stats().reseeds;
  for (int step = 0; step < 2000; ++step) {
    d.schedule_fire_only(now + 10.0, 5000 + step);
    now = d.pop();
  }
  // One scan of the bag per sparse event would be ~2000 reseeds.
  EXPECT_LT(d.ladder().tier_stats().reseeds - reseeds, 20u);
  while (!d.empty()) now = d.pop();
}

TEST(QueueDifferential, UniformTorusShapeNeverRewindows) {
  // The torus shape: thousands of senders keep deliveries in flight and
  // timers spread over the whole round, so the span-derived window
  // already holds a few entries per bucket. The ordering work stays low
  // and the trigger must not fire (its selectivity, pinned).
  Rng rng(12);
  Differ d;
  Time now = 0.0;
  const auto deliver = [&d, &rng](Time at, std::int32_t tag) {
    std::vector<Duration> delays(5);
    for (Duration& delay : delays) delay = 0.999 + 1e-3 * rng.next_double();
    d.schedule_group(at, delays, tag);
  };
  for (int i = 0; i < 800; ++i) deliver(rng.next_double(), i);
  for (int i = 0; i < 400; ++i) d.schedule(10.0 * rng.next_double(), i);
  for (int step = 0; step < 60000; ++step) {
    now = d.pop();
    if (step % 5 == 0) deliver(now, 1000 + step);
    if (step % 3 == 0) {
      // Timer re-aims over the round, as the protocol's timers do.
      d.reschedule(rng.below(d.live_count()), now + 10.0 * rng.next_double());
    }
  }
  EXPECT_EQ(d.ladder().tier_stats().rewindows, 0u);
  while (!d.empty()) now = d.pop();
}

}  // namespace
}  // namespace ftgcs::sim
