// Lockstep differential fuzz: the ordered batch drain (EventQueue::pop_run)
// against the ordered oracle (tests/queue_oracle.h) fed the SAME op stream.
//
// pop_run's contract: it pops the maximal run (≤ max) of consecutive
// earliest events at time ≤ t_end that belong to the batch channel —
// fire-only, matching (sink, kind), x == 0, predicate-accepted — in exact
// (time, seq) order, and stops at the first head that is not. Every other
// event fires through pop_if_at_most in the same global order. The fuzz
// drives both queues through a tier-crossing mixture (dense clusters, far
// spikes, exact ties between the wide and narrow lanes, cancels, timer
// reschedules, predicate-rejected and foreign-sink deliveries, rung-sized
// piles) and drains the subject through pop_run with truncated buffers and
// finite, tie-exact and infinite t_end. Each run is checked event by event
// against the oracle's pops: same (time, payload) sequence, every item a
// batch event at or before t_end, and the run maximal unless the buffer
// filled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <tuple>
#include <vector>

#include "queue_oracle.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace ftgcs::sim {
namespace {

using testing::QueueOracle;

constexpr SinkId kBatchSink = 0;
constexpr SinkId kTimerSink = 1;
constexpr SinkId kOtherSink = 2;  ///< fire-only pulses off the channel
const std::uint32_t kBatchKey =
    kBatchSink << 8 | static_cast<std::uint32_t>(EventKind::kPulse);
constexpr std::size_t kBuf = 64;

/// Admits payloads whose a and c tags have equal parity, so one fan-out
/// group (shared a, per-delivery c) mixes admitted and rejected deliveries.
bool admit(const EventPayload& payload, const void*) {
  return ((payload.a ^ payload.c) & 1) == 0;
}

/// What pop_run may take, read off an oracle pop: a fire-only channel
/// pulse with no `x` (an x ≠ 0 payload rides a slot, which never matches)
/// that the predicate admits.
bool batchable(const QueueOracle::Fired& fired) {
  return fired.id == 0 && fired.kind == EventKind::kPulse &&
         fired.sink == kBatchSink && fired.payload.x == 0.0 &&
         admit(fired.payload, nullptr);
}

/// One observed pop: the fire time plus every payload field. Random tags
/// make events self-describing, so equal sequences mean equal (time, seq)
/// order, ties included.
using Obs = std::tuple<Time, std::int32_t, std::int32_t, std::int32_t,
                       std::uint32_t, double>;

Obs observe(Time at, const EventPayload& p) {
  return {at, p.a, p.b, p.c, p.d, p.x};
}

Time draw_time(Rng& rng, Time now) {
  const double pick = rng.next_double();
  if (pick < 0.35) return now + rng.next_double();             // near future
  if (pick < 0.55) return now + 0.5;                           // exact ties
  if (pick < 0.70) return now + rng.next_double() * 1e-6;      // dense cluster
  if (pick < 0.80) return now + 100.0 + rng.next_double();     // mid horizon
  if (pick < 0.92) return now + 1e5 * (1.0 + rng.next_double());  // far spike
  // Slightly below the frontier: the drain-bucket clamp path.
  return now * (1.0 - 1e-9 * rng.next_double());
}

std::int32_t tag(Rng& rng) {
  return static_cast<std::int32_t>(rng.below(1 << 20));
}

class BatchDrainFuzz {
 public:
  explicit BatchDrainFuzz(std::uint64_t seed) : rng_(seed) {}

  void run() {
    for (int round = 0; round < 60; ++round) {
      for (int op = 0; op < 400; ++op) {
        schedule_op(op);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (round % 10 == 3) schedule_pile();
      // Mid-round drains to finite horizons: one arbitrary, one exactly
      // at the tie instant (t_end is inclusive), one at the frontier.
      const Time t0 = now_;
      drain(t0 + 50.0 * rng_.next_double());
      if (::testing::Test::HasFatalFailure()) return;
      drain(t0 + 0.5);
      if (::testing::Test::HasFatalFailure()) return;
      drain(now_);
      if (::testing::Test::HasFatalFailure()) return;
      if (round % 7 == 6 || round == 59) {
        drain(kTimeInfinity);
        if (::testing::Test::HasFatalFailure()) return;
        ASSERT_TRUE(subject_.empty());
        ASSERT_TRUE(reference_.empty());
        subject_timers_.clear();
        reference_timers_.clear();
      }
    }
    const EventQueue::TierStats& stats = subject_.tier_stats();
    // The counter accounts for exactly the run traffic; nothing drains
    // any other way.
    EXPECT_EQ(stats.ordered_run_events, run_events_);
    EXPECT_EQ(stats.unordered_events, 0u);
    EXPECT_GT(run_events_, 0u);
    EXPECT_GT(single_pops_, 0u);
    EXPECT_GT(truncated_runs_, 0u);
    // The runs crossed every tier: reseeds from the bag, rung buckets.
    EXPECT_GT(stats.reseeds, 0u);
    EXPECT_GT(stats.rung_spawns, 0u);
    EXPECT_GT(stats.narrow_events, 0u);
    EXPECT_EQ(subject_.scheduled_count(), reference_.scheduled_count());
  }

 private:
  void schedule_op(int op) {
    const double pick = rng_.next_double();
    const Time t = draw_time(rng_, now_);
    if (pick < 0.40) {
      EventPayload payload;
      payload.a = tag(rng_);
      payload.b = tag(rng_);
      payload.c = tag(rng_);
      // A slice carries a nonzero `x`: schedule_fire_only diverts those to
      // the slotted path, which the batch channel never takes.
      if (rng_.next_double() < 0.1) payload.x = t;
      subject_.schedule_fire_only(t, EventKind::kPulse, kBatchSink, payload);
      reference_.schedule_fire_only(t, EventKind::kPulse, kBatchSink,
                                    payload);
    } else if (pick < 0.50) {
      schedule_group();
    } else if (pick < 0.55) {
      EventPayload payload;  // admitted tags, foreign sink: never batched
      payload.a = 2 * tag(rng_);
      payload.b = tag(rng_);
      subject_.schedule_fire_only(t, EventKind::kPulse, kOtherSink, payload);
      reference_.schedule_fire_only(t, EventKind::kPulse, kOtherSink,
                                    payload);
    } else if (pick < 0.80 || subject_timers_.empty()) {
      EventPayload payload;
      payload.a = -1 - op;
      payload.x = t;
      subject_timers_.push_back(
          subject_.schedule_typed(t, EventKind::kTimer, kTimerSink, payload));
      reference_timers_.push_back(reference_.schedule_typed(
          t, EventKind::kTimer, kTimerSink, payload));
    } else if (pick < 0.90) {
      const std::size_t i = rng_.below(subject_timers_.size());
      ASSERT_EQ(subject_.cancel(subject_timers_[i]),
                reference_.cancel(reference_timers_[i]));
      subject_timers_[i] = subject_timers_.back();
      subject_timers_.pop_back();
      reference_timers_[i] = reference_timers_.back();
      reference_timers_.pop_back();
    } else {
      const std::size_t i = rng_.below(subject_timers_.size());
      const Time target = draw_time(rng_, now_);
      ASSERT_EQ(subject_.reschedule(subject_timers_[i], target),
                reference_.reschedule(reference_timers_[i], target));
    }
  }

  /// A coalesced fan-out (narrow 16 B entries in the subject). A third of
  /// its deliveries land exactly on the tie instant, so narrow and wide
  /// entries meet at equal times and only the seq decides.
  void schedule_group() {
    const std::size_t count = 1 + rng_.below(12);
    std::vector<Duration> delays(count);
    for (Duration& delay : delays) {
      delay = rng_.next_double() < 0.3 ? 0.5 : draw_time(rng_, 0.0);
      delay = std::max(delay, 0.0);
    }
    schedule_group(delays);
  }

  /// One fan-out of ~2.5k deliveries inside a microsecond: a pile that
  /// splits into a rung when it reaches the drain head.
  void schedule_pile() {
    std::vector<Duration> delays(2500);
    for (Duration& delay : delays) delay = 1.0 + 1e-6 * rng_.next_double();
    schedule_group(delays);
  }

  void schedule_group(const std::vector<Duration>& delays) {
    EventPayload proto;
    proto.a = tag(rng_);
    proto.b = tag(rng_);
    proto.d = static_cast<std::uint32_t>(rng_.below(1000));
    // The queue borrows the destination list until the last delivery
    // fires; the deque keeps it at a stable address.
    std::vector<std::int32_t>& rest = dests_.emplace_back();
    for (std::size_t i = 1; i < delays.size(); ++i) rest.push_back(tag(rng_));
    const std::int32_t first = tag(rng_);
    subject_.schedule_fire_only_group(now_, delays.data(), delays.size(),
                                      EventKind::kPulse, kBatchSink, proto,
                                      first, rest.data());
    reference_.schedule_fire_only_group(now_, delays.data(), delays.size(),
                                        EventKind::kPulse, kBatchSink, proto,
                                        first, rest.data());
  }

  /// Drains the subject up to `t_end` through pop_run with random buffer
  /// caps, falling back to single pops at non-channel heads, and checks
  /// every emission against the oracle's next pop.
  void drain(Time t_end) {
    for (;;) {
      const std::size_t cap = 1 + rng_.below(kBuf);
      const std::size_t n =
          subject_.pop_run(t_end, kBatchKey, admit, nullptr, buf_, cap);
      ASSERT_LE(n, cap);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_FALSE(reference_.empty());
        const QueueOracle::Fired want = reference_.pop();
        ASSERT_TRUE(batchable(want)) << "run item " << j << " of " << n;
        ASSERT_LE(want.at, t_end);
        ASSERT_EQ(observe(buf_[j].at, buf_[j].payload),
                  observe(want.at, want.payload))
            << "run item " << j << " of " << n;
        now_ = std::max(now_, want.at);
      }
      run_events_ += n;
      if (n == cap) {
        ++truncated_runs_;
        continue;
      }
      // The run was maximal: the oracle's head is not a channel event
      // within t_end, and it fires through the single-pop path.
      const bool more = !reference_.empty() && reference_.next_time() <= t_end;
      if (more) {
        ASSERT_FALSE(batchable(reference_.peek()));
      }
      EventQueue::Fired fired;
      ASSERT_EQ(subject_.pop_if_at_most(t_end, fired), more);
      if (!more) return;
      const QueueOracle::Fired want = reference_.pop();
      ASSERT_EQ(observe(fired.at, fired.payload),
                observe(want.at, want.payload));
      ASSERT_EQ(fired.kind, want.kind);
      ASSERT_EQ(fired.sink, want.sink);
      now_ = std::max(now_, want.at);
      ++single_pops_;
    }
  }

  Rng rng_;
  EventQueue subject_;
  QueueOracle reference_;
  std::vector<EventId> subject_timers_;
  std::vector<QueueOracle::Id> reference_timers_;
  std::deque<std::vector<std::int32_t>> dests_;
  BatchedEvent buf_[kBuf];
  Time now_ = 0.0;
  std::uint64_t run_events_ = 0;
  std::uint64_t single_pops_ = 0;
  std::uint64_t truncated_runs_ = 0;
};

TEST(BatchDrainDifferential, PopRunMatchesOrderedReference) {
  for (const std::uint64_t seed : {1234u, 99u}) {
    SCOPED_TRACE(seed);
    BatchDrainFuzz(seed).run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ftgcs::sim
