// Cancellable discrete-event queue — typed, slot-pooled, allocation-free
// after warm-up, with a calendar/ladder priority front-end.
//
// Events are (time, sequence) ordered; sequence numbers break ties FIFO so
// executions are fully deterministic. A *cancellable* event occupies a
// slot in a pooled array; the slot index and a generation stamp are packed
// into the EventId, so stale handles (cancel-after-fire, slot reuse) are
// rejected by a stamp comparison — no map lookup anywhere. Slots are
// recycled through a free list: a steady-state simulation performs no
// allocation per event, neither for the bookkeeping nor for the work item
// (typed events carry a POD payload dispatched to a registered EventSink
// instead of a closure).
//
// A calendar-queue window of buckets over near-future time absorbs
// push/pop/reschedule in amortized O(1); far-future events live in an
// UNSORTED overflow bag whose order is never consulted — the window is
// rebuilt ("reseeded") by one linear scan of the bag whenever it drains —
// so overflow pushes, removals, and far-future re-aims are O(1) too. The
// bucket width is auto-tuned to the observed density (window =
// kWindowStretch × population span), so buckets hold O(1) events on
// uniform workloads; round-synchronized delivery bands that pile one
// bucket high are split on drain into a finer "rung" of sub-buckets (a
// one-level ladder queue) instead of paying one big sort. A bucket is
// sorted on drain — never on insert — in exact (time, seq) order, so the
// pop sequence is that of an ordered priority queue (pinned by
// tests/test_queue_differential.cpp against the ordered oracle in
// tests/queue_oracle.h, and by the golden scenario traces).
//
// The span-derived width fails when a few far outliers set the span: with
// the paper's exact constants, round timers ~6·10^5 delays out stretch the
// buckets so wide that every in-flight delivery sits in the drain head,
// and each insert there costs a re-sort of the whole head per pop. The
// window therefore adapts to the density at the drain position: when the
// ordering work per fired event since the last reseed crosses kHotWork,
// the live window is poured back into the bag ("rewindow") and reseeded
// with the head bucket's mean entry separation as the width. Later
// reseeds keep that width and transfer only the entries below the new
// window end; the far outliers stay in the bag, so EVERY BAG ENTRY IS
// ≥ win_end_ after a reseed, whichever width it used.
//
// Three further specializations carry the 40k-node workloads:
//   * fire-only events (schedule_fire_only — all network deliveries) store
//     their payload INLINE in the bucket entry: no slot acquire, no
//     position write, no generation bump — zero random pool accesses on
//     the dominant path;
//   * a BROADCAST FAN-OUT (schedule_fire_only_group — one sender's pulse
//     delivered to ~k² neighbors within one delay spread) is coalesced:
//     the shared payload fields (sender, level, kind, sink) are written
//     ONCE into a pooled group record and each delivery becomes a NARROW
//     16-byte entry {time, seq·group} in a second per-bucket lane — half
//     the streaming bytes of the 32-byte inline entry, on the path PR 7's
//     profile showed to be memory-bound. Destinations are not copied at
//     all: the group keeps a borrowed pointer into the caller's adjacency
//     list and the delivery index recovers them (seq − base_seq), so seq
//     assignment is in exactly the caller's per-delivery order and the pop
//     sequence stays bit-identical to N separate schedule_fire_only calls;
//   * for cancellable events, positions_ holds a tagged residence word
//     (bag index, wheel bucket, or rung bucket), so cancel and reschedule
//     stay O(1) swap-removals wherever the event lives; a drain sort
//     leaves positions stale and the removal verifies the slot before
//     trusting an index.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/time_types.h"
#include "support/assert.h"
#include "support/stats_fields.h"

namespace ftgcs::sim {

/// Opaque handle identifying a scheduled event: (slot+1, generation).
struct EventId {
  std::uint64_t value = 0;

  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
  explicit operator bool() const { return value != 0; }
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;

  // head_cache_ points into this object's own bucket storage; a copied or
  // moved-from queue would alias another instance's buckets.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `t` (legacy closure path). Events at
  /// equal time run in scheduling order. Returns a handle for `cancel`.
  EventId schedule(Time t, Callback fn);

  /// Schedules a typed event at absolute time `t`. The engine stores only
  /// the POD payload; the caller-side Simulator dispatches to the sink.
  /// This path never allocates once the pool is warm.
  EventId schedule_typed(Time t, EventKind kind, SinkId sink,
                         const EventPayload& payload);

  /// Schedules a typed event that can never be cancelled or rescheduled
  /// (Fired.id is the null id). The dominant traffic — network pulse
  /// deliveries — is fire-only, and its payload rides inline in the
  /// bucket entry: no slot pool, no positions, no generation stamp. Fires
  /// in exactly the (time, seq) order a schedule_typed at the same instant
  /// would have.
  void schedule_fire_only(Time t, EventKind kind, SinkId sink,
                          const EventPayload& payload);

  /// Coalesced broadcast insert: schedules `count` fire-only deliveries of
  /// one logical send in a single call. Delivery i fires at
  /// `base + delays[i]` aimed at destination i — `first_dest` for i = 0
  /// (the sender's loopback) and `rest_dests[i − 1]` beyond — carrying the
  /// payload template `proto` with only `c` re-aimed (`proto.c` is
  /// ignored). Sequence numbers are assigned in delivery order, so the pop
  /// sequence is bit-identical to `count` schedule_fire_only calls in the
  /// same order.
  ///
  /// For x == 0 payloads this takes the narrow 16-byte entry path: the
  /// shared fields live in one pooled group record and `rest_dests` is
  /// BORROWED — it must stay valid and unchanged until every delivery of
  /// the group has fired (network adjacency lists qualify; they outlive
  /// the run). x ≠ 0 payloads fall back to per-delivery scheduling with
  /// identical (time, seq) semantics.
  void schedule_fire_only_group(Time base, const Duration* delays,
                                std::size_t count, EventKind kind,
                                SinkId sink, const EventPayload& proto,
                                std::int32_t first_dest,
                                const std::int32_t* rest_dests);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a no-op (returns false). Stamp bump + targeted
  /// removal from wherever the entry lives; no search, no allocation.
  bool cancel(EventId id);

  /// Moves a pending event to time `t` under a fresh sequence number —
  /// observably identical to cancel(id) + re-schedule (same payload), but
  /// in place. Returns false (and does nothing) if `id` is no longer live.
  bool reschedule(EventId id, Time t);

  /// True if no live events remain.
  bool empty() const {
    return bag_.empty() && bag_narrow_.empty() && wheel_live_ == 0 &&
           rung_live_ == 0;
  }

  /// Number of live (not cancelled, not fired) events.
  std::size_t size() const {
    return bag_.size() + bag_narrow_.size() + wheel_live_ + rung_live_;
  }

  /// Time of the earliest live event; kTimeInfinity when empty. This may
  /// sort the current bucket (logically const — the live event set and
  /// the pop order are unchanged).
  Time next_time() const;

  /// Pops and returns the earliest live event. Requires !empty().
  struct Fired {
    Time at = 0.0;
    EventId id;  ///< null for fire-only events
    EventKind kind = EventKind::kClosure;
    SinkId sink = kInvalidSink;
    EventPayload payload;
    Callback fn;
  };
  Fired pop();

  /// Single-inspection variant of next_time() + pop(): pops the earliest
  /// live event into `out` iff its time is ≤ `t_end`. The run loop's hot
  /// path — one head read per fired event instead of two.
  bool pop_if_at_most(Time t_end, Fired& out);

  /// Batch drain: pops the maximal run (≤ `max`) of consecutive earliest
  /// events at time ≤ `t_end` that belong to the batch channel — fire-only
  /// events whose packed (sink << 8 | kind) equals `sink_kind` and whose
  /// payload `pred(payload, ctx)` accepts — into `out`, in exact (time,
  /// seq) pop order. Slotted entries (cancellable events, and fire-only
  /// payloads with x ≠ 0) never match. Stops at the first non-matching
  /// head, so an interleaved timer or cancellable event keeps its place.
  /// Returns the run length (0 when the head does not match). Safe only
  /// when the receiver's processing of a matching event schedules nothing
  /// (see Simulator::set_batch_channel for the contract).
  std::size_t pop_run(Time t_end, std::uint32_t sink_kind,
                      BatchPredicate pred, const void* ctx, BatchedEvent* out,
                      std::size_t max);

  /// Total events ever scheduled (for stats / microbenchmarks).
  /// Reschedules consume sequence numbers (they re-enter the FIFO order),
  /// so this counts logical schedules exactly like cancel+schedule would.
  std::uint64_t scheduled_count() const { return next_seq_ - 1; }

  /// Pre-sizes pool and tiers so the first `capacity` concurrent events
  /// allocate nothing.
  void reserve(std::size_t capacity);

  /// Pins the warmed-up capacity profile: levels every calendar bucket
  /// lane up to a margin over the highest single-lane occupancy reached
  /// so far. Vectors already keep their own high-water capacity; what
  /// still allocates in steady state is cross-bucket variance — each
  /// reseed re-derives the window origin and width from the drifting
  /// event population, so the same traffic keeps landing in different
  /// buckets and cold lanes grow through their 1→2→4… ramps forever.
  /// After prewarm, any bucket can absorb the largest pile any bucket has
  /// ever seen (×2), so steady-state windows allocate nothing (the
  /// contract tests/test_alloc_guard.cpp pins). Opt-in: the cost is
  /// O(buckets × max-lane) memory, so production sweeps simply never
  /// call it.
  void prewarm();

  /// Slots currently in the pool (diagnostics; high-water mark of
  /// concurrent cancellable events).
  std::size_t pool_size() const { return slots_.size(); }

  /// Queue-tier diagnostics, surfaced through `--timing` footers so sweep
  /// output shows which tier dominated a run. All values are deterministic
  /// functions of the schedule (no wall clock involved). each_field() is
  /// the one list of them (see support/stats_fields.h).
  struct TierStats {
    std::size_t bucket_count = 0;   ///< widest calendar window built
    std::uint64_t rung_spawns = 0;  ///< overflowing buckets split on drain
    std::size_t overflow_peak = 0;  ///< overflow-tier occupancy high-water mark
    std::uint64_t overflow_pushes = 0;  ///< events routed via the overflow tier
    std::uint64_t reseeds = 0;      ///< windows rebuilt from the overflow tier
    // Batch-channel run length (see pop_run): how much of the fired
    // traffic bypassed per-event dispatch.
    std::uint64_t ordered_run_events = 0;  ///< events drained in sorted runs
    /// Always 0: batch runs drain only in (time, seq) order. Kept because
    /// the benchmark harness (perfbench/src/replay.cpp) still reads it.
    std::uint64_t unordered_events = 0;
    // Bytes-per-event split (see schedule_fire_only_group): how much of the
    // scheduled traffic rode the narrow 16-byte delivery lane vs the wide
    // 32-byte entries (inline fire-only + slotted), and how many pooled
    // group records the narrow traffic shared.
    std::uint64_t narrow_events = 0;   ///< 16 B narrow deliveries scheduled
    std::uint64_t wide_events = 0;     ///< 32 B entries scheduled
    std::uint64_t group_inserts = 0;   ///< coalesced fan-out groups created
    // Ordering work: what the drain paid to restore (time, seq) order. Per
    // fired event, this is the queue layer's cost in the sparse regime,
    // where one hot head bucket absorbs the inserts.
    std::uint64_t sorts = 0;           ///< drain sorts of a bucket
    std::uint64_t sorted_entries = 0;  ///< entries in the lanes they sorted
    std::uint64_t rewindows = 0;  ///< windows rebuilt for a hot head bucket

    /// Entry bytes written at schedule time (16 B narrow + 32 B wide +
    /// one 40 B group record per fan-out). Reseed/rung redistribution
    /// traffic is not included.
    std::uint64_t entry_bytes() const {
      return 16 * narrow_events + 32 * wide_events + 40 * group_inserts;
    }

    /// Every counter with its merge rule over shards and sweep tasks:
    /// maxima for sizes and high-water marks, sums for event counts.
    /// `unordered_events` is left out: it is always 0.
    template <class F>
    static void each_field(F&& f) {
      using support::Merge;
      f("bucket_count", &TierStats::bucket_count, Merge::kMax);
      f("rung_spawns", &TierStats::rung_spawns, Merge::kSum);
      f("overflow_peak", &TierStats::overflow_peak, Merge::kMax);
      f("overflow_pushes", &TierStats::overflow_pushes, Merge::kSum);
      f("reseeds", &TierStats::reseeds, Merge::kSum);
      f("ordered_run_events", &TierStats::ordered_run_events, Merge::kSum);
      f("narrow_events", &TierStats::narrow_events, Merge::kSum);
      f("wide_events", &TierStats::wide_events, Merge::kSum);
      f("group_inserts", &TierStats::group_inserts, Merge::kSum);
      f("sorts", &TierStats::sorts, Merge::kSum);
      f("sorted_entries", &TierStats::sorted_entries, Merge::kSum);
      f("rewindows", &TierStats::rewindows, Merge::kSum);
    }
  };
  const TierStats& tier_stats() const { return stats_; }

 private:
  /// 32 bytes — two slots per cache line; closures live in the parallel
  /// fns_ array so the typed hot path never touches std::function storage.
  /// The sink id and event kind share one word (24 + 8 bits): a run has at
  /// most a few-per-node sinks, far below 2^24.
  struct Slot {
    std::uint32_t gen = 1;  ///< never 0, so EventId.value != 0 always
    std::uint32_t sink_kind = 0;  ///< sink << 8 | kind
    EventPayload payload;

    void set(EventKind kind, SinkId sink) {
      sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
    }
    EventKind kind() const {
      return static_cast<EventKind>(sink_kind & 0xffu);
    }
    SinkId sink() const { return sink_kind >> 8; }
  };
  static_assert(sizeof(EventPayload) == 24);

  /// The bucket/bag element: the sort key {at, key} plus an inline
  /// payload, used (and valid) only for inline (fire-only) entries — those
  /// never touch the slot pool at all. `key` packs (seq << kSlotBits) |
  /// slot: comparing keys compares sequence numbers first (they are
  /// unique), and the slot rides along for free. 32 bytes — the queue's
  /// streaming working set at 40k-node scale is hundreds of MB of entry
  /// traffic per second, so entry width is directly wall time. The
  /// squeeze: an inline entry's slot field is otherwise a constant
  /// sentinel, so its low bits carry the payload's `d` tag (see
  /// kInlineBase), and `payload.x` is not stored at all — fire-only
  /// events with x ≠ 0 (the baselines' kShare timestamps) take the
  /// slotted path instead, with identical (time, seq) semantics.
  /// Sequence numbers are unique, so the repurposed slot bits never
  /// influence ordering.
  struct Entry {
    Time at;
    std::uint64_t key;
    std::int32_t a = 0;  ///< EventPayload::a (inline entries)
    std::int32_t b = 0;  ///< EventPayload::b
    std::int32_t c = 0;  ///< EventPayload::c
    std::uint32_t sink_kind = 0;  ///< sink << 8 | kind (inline entries)

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key) & ((1u << kSlotBits) - 1);
    }
    bool is_inline() const { return slot() >= kInlineBase; }
    std::uint32_t inline_d() const { return slot() - kInlineBase; }
  };
  static_assert(sizeof(Entry) == 32);

  /// The narrow delivery entry (schedule_fire_only_group): nothing but the
  /// sort key. The low kSlotBits of `key` hold the owning group-record
  /// index instead of a slot; the seq in the high bits recovers the
  /// destination (seq − base_seq indexes the group's borrowed dest list).
  /// Sequence numbers are unique across narrow and wide entries, so the
  /// shared (time, seq) comparator merges the two lanes exactly.
  struct NarrowEntry {
    Time at;
    std::uint64_t key;  ///< seq << kSlotBits | group id
  };
  static_assert(sizeof(NarrowEntry) == 16);

  /// Shared state of one coalesced fan-out: the payload fields that are
  /// identical across the whole broadcast, written once per ~k² deliveries.
  /// `live` counts undecoded deliveries; at zero the record is recycled
  /// through free_gids_. `rest` is borrowed from the caller (see
  /// schedule_fire_only_group) and never owned here.
  struct GroupRec {
    std::uint64_t base_seq = 0;          ///< seq of delivery 0 (first_dest)
    const std::int32_t* rest = nullptr;  ///< dests of deliveries 1..count−1
    std::int32_t first_dest = 0;
    std::int32_t a = 0;                  ///< EventPayload::a
    std::int32_t b = 0;                  ///< EventPayload::b
    std::uint32_t d = 0;                 ///< EventPayload::d (unrestricted)
    std::uint32_t sink_kind = 0;         ///< sink << 8 | kind
    std::uint32_t live = 0;              ///< deliveries still in the queue
  };
  static_assert(sizeof(GroupRec) == 40);

  /// One calendar bucket. Unsorted while it collects events; sorted in
  /// DESCENDING (time, seq) order when it becomes the drain head, so pops
  /// are pop_back and the live span is always exactly `items` + `narrow`
  /// (two lanes, merged on pop by the shared comparator).
  struct Bucket {
    std::vector<Entry> items;
    std::vector<NarrowEntry> narrow;  ///< 16 B delivery lane (see NarrowEntry)
    /// Per-lane drain-order flags: an insert dirties only its own lane, so
    /// a narrow burst into a partially drained head re-sorts 16 B entries
    /// without touching the (already ordered) wide lane — at 40k nodes the
    /// delivery band lands thousands of narrow inserts per drain bucket
    /// and a shared flag made the wide introsort the top profile entry.
    /// Pops preserve order, so a set flag survives them.
    bool sorted_wide = false;
    bool sorted_narrow = false;
  };
  static bool bucket_empty(const Bucket& b) {
    return b.items.empty() && b.narrow.empty();
  }
  /// Drain-head order means BOTH lanes are in descending (time, seq) order.
  static bool bucket_sorted(const Bucket& b) {
    return b.sorted_wide && b.sorted_narrow;
  }
  static std::size_t bucket_size(const Bucket& b) {
    return b.items.size() + b.narrow.size();
  }

  /// 22/42 split: ≤ 4M concurrent cancellable events (a 40k-node full-mesh
  /// run keeps ~400k in flight) and ~4.4e12 lifetime schedules before the
  /// guarded abort — days of wall clock at current throughput.
  static constexpr unsigned kSlotBits = 22;
  static constexpr unsigned kSeqBits = 64 - kSlotBits;
  /// Slot values in [kInlineBase, 2^22) mark a fire-only (inline payload)
  /// entry; the offset from kInlineBase is the payload's `d` tag (< 256).
  static constexpr std::uint32_t kInlineBase = (1u << kSlotBits) - 256;

  // ---- residence encoding (positions_) --------------------------------------
  // positions_[slot] describes where the slot's entry currently lives:
  //   < 2^32                       → overflow bag, that index
  //   (b+1) << 32 | idx            → wheel bucket b, items[idx]
  //   kRungBit | (b+1) << 32 | idx → rung bucket b, items[idx]
  // Fire-only entries have no slot and appear in no position.
  static constexpr std::uint64_t kRungBit = std::uint64_t{1} << 63;
  static std::uint64_t encode_bucket_pos(bool rung, std::size_t bucket,
                                         std::size_t idx) {
    return (rung ? kRungBit : 0) |
           (static_cast<std::uint64_t>(bucket + 1) << 32) |
           static_cast<std::uint64_t>(idx);
  }

  // ---- calendar-window tuning -----------------------------------------------
  /// Bucket count tracks the population, capped well below the population
  /// at 40k-node scale: the limiting resource is the cache working set of
  /// ACTIVE bucket tails (the delivery band sweeps them on every insert),
  /// not the per-bucket sort, which stays cheap up to a few hundred
  /// contiguous entries. 2^14 × wider buckets beat 2^17 × narrow ones by
  /// ~15% end-to-end on the 40k torus.
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 14;
  /// The window is stretched this far past the span observed at reseed.
  /// The span of the in-flight population equals the push horizon (delay /
  /// timer bound), so a window of exactly one span would put nearly every
  /// steady-state push just beyond win_end_ — through the overflow tier.
  /// A 2× window keeps about half the pushes in O(1) buckets. The batch
  /// drain made pops cheap, so the binding cost is the cache working set
  /// of active bucket tails: shrinking the window from the previous 3×
  /// bought ~4% end-to-end on the 40k-node torus (an overflow push is a
  /// plain bag append — cheaper than a cold bucket-tail miss), while 1.5×
  /// and 4× both measured worse.
  static constexpr double kWindowStretch = 2.0;
  /// A drain-head bucket larger than this is split into a rung of finer
  /// sub-buckets instead of sorted whole (skew absorption). Sorting ~2k
  /// contiguous PODs costs ~11 compares/event and no redistribution, so
  /// the rung only engages on real pile-ups (round-synchronized delivery
  /// bands and reseed transfers put 100s–1000s of events per bucket; see
  /// kRungFanout).
  static constexpr std::size_t kRungSpawnThreshold = 2048;
  /// Sub-buckets target ~kRungFanout events each: fine enough that the
  /// per-sub-bucket sort is trivial, coarse enough that draining the rung
  /// does not degenerate into scanning thousands of empty sub-buckets.
  static constexpr std::size_t kRungFanout = 16;
  static constexpr std::size_t kMaxRungBuckets = 4096;
  /// Hot-head trigger (see hot_head_width): the window is rebuilt around
  /// the head's own density once ordering work — entries sorted — exceeds
  /// kHotWork per fired event since the last reseed. Measured at every
  /// trigger evaluation (EXPERIMENTS.md, "Sparse regime"): at most 4.2 on
  /// the tori and the E1 grid, 33 on the paper-strict pair.
  static constexpr std::uint64_t kHotWork = 8;
  /// Fired events a window must have served before its ratio is trusted
  /// (at least this many, and at least as many as the reseed moved in):
  /// a fresh window's first drain sorts precede its pops, and the opening
  /// burst of a run piles up its first buckets.
  static constexpr std::uint64_t kHotMinFired = 1024;
  /// A rebuild must shrink the bucket width at least this much, or it
  /// would only re-sort the same pile-up.
  static constexpr double kMinShrink = 4.0;

  template <typename A, typename B = A>
  static bool earlier(const A& a, const B& b) {
    // Branchless: bucket order is data-random, so a short-circuit here is
    // a misprediction fountain inside the drain sorts. The two-type form
    // merges the narrow and wide lanes of one bucket: both carry the
    // same {at, key} prefix and seqs are unique across lanes, so the packed
    // low key bits (slot vs group id) never decide an ordering.
    return (a.at < b.at) | ((a.at == b.at) & (a.key < b.key));
  }

  std::uint32_t acquire_slot();
  void bump_generation(std::uint32_t slot) {
    if (++slots_[slot].gen == 0) slots_[slot].gen = 1;  // 0 is the null id
  }
  /// Decodes a live id into its slot index, or returns false.
  bool decode_live(EventId id, std::uint32_t& slot) const;
  EventId push_entry(Time t, std::uint32_t slot);
  void fill_fired_slot(Time at, std::uint32_t slot, Fired& out);
  void fill_fired(const Entry& head, Fired& out);

  // ---- narrow-lane helpers (schedule_fire_only_group) -----------------------
  static std::uint32_t narrow_gid(std::uint64_t key) {
    return static_cast<std::uint32_t>(key) & ((1u << kSlotBits) - 1);
  }
  /// Decodes a narrow entry's payload from its group record: the delivery
  /// index (seq − base_seq) selects the destination, everything else is
  /// the group's shared state.
  void narrow_payload(const NarrowEntry& e, EventPayload& pl) const {
    const GroupRec& g = groups_[narrow_gid(e.key)];
    const std::uint64_t idx = (e.key >> kSlotBits) - g.base_seq;
    pl.a = g.a;
    pl.b = g.b;
    pl.c = idx == 0 ? g.first_dest : g.rest[idx - 1];
    pl.d = g.d;
    pl.x = 0.0;  // x ≠ 0 groups take the per-delivery fallback
  }
  std::uint32_t narrow_sink_kind(const NarrowEntry& e) const {
    return groups_[narrow_gid(e.key)].sink_kind;
  }
  /// One delivery of the group left the queue; the record is recycled when
  /// the last one goes.
  void narrow_retire(std::uint64_t key) {
    const std::uint32_t gid = narrow_gid(key);
    if (--groups_[gid].live == 0) free_gids_.push_back(gid);
  }
  void fill_fired_narrow(const NarrowEntry& head, Fired& out);

  // ---- ladder tier helpers (event_queue.cpp) --------------------------------
  void push_overflow(const Entry& entry);
  void insert_ladder(const Entry& entry);
  void insert_narrow(const NarrowEntry& entry);
  void insert_ladder_group(Time base, const Duration* delays,
                           std::size_t count, EventKind kind, SinkId sink,
                           const EventPayload& proto, std::int32_t first_dest,
                           const std::int32_t* rest_dests);
  void bucket_insert(Bucket& bucket, bool rung, std::size_t index,
                     const Entry& entry);
  /// Removes the (cancellable) entry of `slot` from wherever it lives.
  void remove_resident(std::uint32_t slot);
  /// Ensures head_cache_ points at the sorted, non-empty drain bucket.
  /// Advances the window, spawns rungs, and reseeds from the overflow tier
  /// as needed. Returns false iff the queue is empty.
  bool prepare_head();
  void sort_bucket(Bucket& bucket);
  void spawn_rung(Bucket& bucket);
  /// Rebuilds the window from the overflow tier. Only entries below the
  /// new window end move into buckets; the rest stay in the bag, so every
  /// bag entry is ≥ win_end_ afterwards.
  void reseed();
  /// The bucket width the sorted drain head `bucket` asks for when the
  /// window has been doing more than kHotWork ordering work per fired
  /// event; 0 when the head is not hot (or the width would barely shrink).
  double hot_head_width(const Bucket& bucket) const;
  /// Pours every live window entry back into the overflow tier and pins
  /// `width` for the following reseeds.
  void rewindow(double width);
  std::uint64_t fired_count() const {
    return pops_ + stats_.ordered_run_events;
  }
  std::uint64_t ordering_work() const { return stats_.sorted_entries; }

  std::vector<Slot> slots_;
  std::vector<Callback> fns_;  ///< parallel to slots_; closure events only
  /// Residence of each slot's entry (see encoding above), parallel to
  /// slots_ but kept separate: bucket moves touch only this dense array,
  /// not the fat slot records.
  std::vector<std::uint64_t> positions_;
  std::vector<std::uint32_t> free_;
  std::vector<Entry> bag_;  ///< unsorted far-future overflow
  std::vector<NarrowEntry> bag_narrow_;  ///< narrow-lane overflow companion
  /// Pooled fan-out group records (narrow lane). Indexed by the low
  /// kSlotBits of a NarrowEntry key; recycled through free_gids_ when the
  /// last live delivery of a group is popped. Only destroyed wholesale —
  /// the borrowed `rest` pointers are never dereferenced at destruction,
  /// so queue teardown is independent of the callers' adjacency lifetime.
  std::vector<GroupRec> groups_;
  std::vector<std::uint32_t> free_gids_;
  std::uint64_t next_seq_ = 1;

  // ---- calendar window -----------------------------------------------------
  std::vector<Bucket> wheel_;   ///< active buckets: indices [0, wheel_nb_)
  std::size_t wheel_nb_ = 0;    ///< buckets in the current window
  std::size_t wheel_cur_ = 0;   ///< current drain bucket
  Time win_start_ = 0.0;        ///< window origin (bucket 0 lower bound)
  Time win_end_ = 0.0;          ///< exclusive upper bound; beyond → overflow
  double bucket_width_ = 1.0;
  std::size_t wheel_live_ = 0;
  /// Bucket width set by the last rewindow (0: none). Reseeds use it in
  /// place of the span-derived width whenever it is narrower, so a few far
  /// outliers (round timers) cannot stretch the buckets back over the
  /// whole near-future population.
  double dense_width_ = 0.0;
  std::uint64_t pops_ = 0;        ///< single pops (pop_if_at_most)
  std::uint64_t win_fired0_ = 0;  ///< fired_count() at the last reseed
  std::uint64_t win_work0_ = 0;   ///< ordering_work() at the last reseed
  std::uint64_t win_seeded_ = 0;  ///< entries the last reseed transferred

  std::vector<Bucket> rung_;    ///< one-level fine split of the drain bucket
  std::size_t rung_nb_ = 0;
  std::size_t rung_cur_ = 0;
  Time rung_start_ = 0.0;
  double rung_width_ = 1.0;
  std::size_t rung_live_ = 0;
  bool rung_active_ = false;

  /// The sorted, non-empty bucket pops come from. Any mutation that could
  /// change the head either clears a lane's sorted flag (insert,
  /// swap-remove — bucket_sorted then fails) or nulls this cache (reseed,
  /// rung spawn — the backing vectors may reallocate there), so a sorted
  /// non-empty cached bucket is always the true head.
  Bucket* head_cache_ = nullptr;

  TierStats stats_;
};

// ---- inline hot path --------------------------------------------------------
// The fire loop runs millions of times per simulated second; defining it
// here lets the Simulator's run loop inline the whole pop path.

inline void EventQueue::fill_fired_slot(Time at, std::uint32_t slot,
                                        Fired& out) {
  Slot& s = slots_[slot];
  out.at = at;
  out.id = EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 | s.gen};
  out.kind = s.kind();
  out.payload = s.payload;
  if (out.kind == EventKind::kClosure) {
    out.sink = kInvalidSink;
    out.fn = std::move(fns_[slot]);
    fns_[slot] = nullptr;  // drop captures now, not at slot reuse
  } else {
    out.sink = s.sink();
    out.fn = nullptr;
  }
  bump_generation(slot);  // the id is spent: cancel-after-fire no-ops
  free_.push_back(slot);
}

inline void EventQueue::fill_fired(const Entry& head, Fired& out) {
  if (head.is_inline()) {
    // Fire-only: everything rides in the entry — no pool access at all.
    out.at = head.at;
    out.id = EventId{0};
    out.kind = static_cast<EventKind>(head.sink_kind & 0xffu);
    out.sink = head.sink_kind >> 8;
    out.payload.a = head.a;
    out.payload.b = head.b;
    out.payload.c = head.c;
    out.payload.d = head.inline_d();
    out.payload.x = 0.0;  // x ≠ 0 events take the slotted path
    out.fn = nullptr;
    return;
  }
  fill_fired_slot(head.at, head.slot(), out);
}

inline void EventQueue::fill_fired_narrow(const NarrowEntry& head, Fired& out) {
  // Decodes through the group record and RETIRES the delivery (the caller
  // is about to pop it); gid reuse cannot bite because the fields are read
  // before the record is freed.
  out.at = head.at;
  out.id = EventId{0};
  const std::uint32_t sk = narrow_sink_kind(head);
  out.kind = static_cast<EventKind>(sk & 0xffu);
  out.sink = sk >> 8;
  narrow_payload(head, out.payload);
  out.fn = nullptr;
  narrow_retire(head.key);
}

inline bool EventQueue::pop_if_at_most(Time t_end, Fired& out) {
  // Fast path: the drain bucket is sorted descending in both lanes, so
  // the head is one back() read per lane (merged by the shared comparator
  // — seqs are unique across lanes) and the pop one pop_back.
  Bucket* bucket = head_cache_;
  if (bucket == nullptr || !bucket_sorted(*bucket) || bucket_empty(*bucket)) {
    if (!prepare_head()) return false;
    bucket = head_cache_;
  }
  const std::size_t n = bucket->items.size();
  const std::size_t nn = bucket->narrow.size();
  if (nn != 0 &&
      (n == 0 || earlier(bucket->narrow[nn - 1], bucket->items[n - 1]))) {
    const NarrowEntry& head = bucket->narrow[nn - 1];
    if (head.at > t_end) return false;
    fill_fired_narrow(head, out);
    bucket->narrow.pop_back();
  } else {
    const Entry& head = bucket->items[n - 1];
    if (head.at > t_end) return false;
    if (n >= 2) {
      const Entry& next = bucket->items[n - 2];
      if (!next.is_inline()) {
        // The next pop's slot record is a random access into a multi-MB
        // pool; start pulling it while this event is dispatched.
        __builtin_prefetch(&slots_[next.slot()], 1);
      }
    }
    fill_fired(head, out);
    bucket->items.pop_back();
  }
  ++pops_;
  if (rung_active_) {
    --rung_live_;
  } else {
    --wheel_live_;
  }
  return true;
}

inline std::size_t EventQueue::pop_run(Time t_end, std::uint32_t sink_kind,
                                       BatchPredicate pred, const void* ctx,
                                       BatchedEvent* out, std::size_t max) {
  std::size_t n = 0;
  // Both lanes of the drain bucket are sorted descending, so a
  // matching run is a contiguous suffix of their merge — walk the two
  // tails with the shared comparator, then retire each lane with ONE
  // resize and one live-counter update per bucket instead of per event.
  // The run keeps flowing across bucket (and rung/reseed) boundaries
  // through prepare_head(). Cancellable entries leave Entry::sink_kind at
  // 0 and can never match a real channel.
  while (n < max) {
    Bucket* bucket = head_cache_;
    if (bucket == nullptr || !bucket_sorted(*bucket) || bucket_empty(*bucket)) {
      if (!prepare_head()) break;
      bucket = head_cache_;
    }
    const std::vector<Entry>& items = bucket->items;
    const std::vector<NarrowEntry>& narrow = bucket->narrow;
    const std::size_t m = items.size();
    const std::size_t mn = narrow.size();
    std::size_t tw = 0;  // taken from the wide lane
    std::size_t tn = 0;  // taken from the narrow lane
    bool mismatch = false;
    while (n + tw + tn < max) {
      const bool have_w = tw < m;
      const bool have_n = tn < mn;
      if (!have_w && !have_n) break;
      BatchedEvent& slot = out[n + tw + tn];
      if (have_n &&
          (!have_w || earlier(narrow[mn - 1 - tn], items[m - 1 - tw]))) {
        const NarrowEntry& e = narrow[mn - 1 - tn];
        if (e.at > t_end || narrow_sink_kind(e) != sink_kind) {
          mismatch = true;
          break;
        }
        slot.at = e.at;
        narrow_payload(e, slot.payload);
        if (!pred(slot.payload, ctx)) {
          mismatch = true;
          break;
        }
        narrow_retire(e.key);
        ++tn;
      } else {
        const Entry& e = items[m - 1 - tw];
        if (e.at > t_end || e.sink_kind != sink_kind) {
          mismatch = true;
          break;
        }
        slot.at = e.at;
        slot.payload.a = e.a;
        slot.payload.b = e.b;
        slot.payload.c = e.c;
        slot.payload.d = e.inline_d();
        slot.payload.x = 0.0;
        if (!pred(slot.payload, ctx)) {
          mismatch = true;
          break;
        }
        ++tw;
      }
    }
    const std::size_t took = tw + tn;
    if (took != 0) {
      // Entry/NarrowEntry are trivially destructible.
      if (tw != 0) bucket->items.resize(m - tw);
      if (tn != 0) bucket->narrow.resize(mn - tn);
      if (rung_active_) {
        rung_live_ -= took;
      } else {
        wheel_live_ -= took;
      }
      n += took;
    }
    if (mismatch || took != m + mn) break;  // non-matching head (or max)
  }
  stats_.ordered_run_events += n;
  return n;
}

}  // namespace ftgcs::sim
