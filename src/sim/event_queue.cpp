#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ftgcs::sim {

void EventQueue::reserve(std::size_t capacity) {
  slots_.reserve(capacity);
  fns_.reserve(capacity);
  positions_.reserve(capacity);
  free_.reserve(capacity);
  if (backend_ == QueueBackend::kHeap) {
    heap_.reserve(capacity);
  } else {
    bag_.reserve(capacity);
    bag_narrow_.reserve(capacity);
    // Bucket headers only; each bucket's item vector grows on demand and
    // keeps its capacity across windows, so the steady state is
    // allocation-free either way.
    wheel_.reserve(std::min(capacity, kMaxBuckets));
  }
}

void EventQueue::prewarm() {
  if (backend_ == QueueBackend::kHeap) return;
  // A lane's capacity IS its occupancy high-water (vectors never shrink
  // here — drains clear() or resize() down), so the global floor needs no
  // separate tracking: take the max over every bucket ever materialized.
  std::size_t wide = 0;
  std::size_t narrow = 0;
  for (const Bucket& b : wheel_) {
    wide = std::max(wide, b.items.capacity());
    narrow = std::max(narrow, b.narrow.capacity());
  }
  for (const Bucket& b : rung_) {
    wide = std::max(wide, b.items.capacity());
    narrow = std::max(narrow, b.narrow.capacity());
  }
  // ×2 margin: window drift can pile a bucket somewhat higher than the
  // highest pile observed during warmup.
  wide *= 2;
  narrow *= 2;
  // reserve() moves lane storage but not the Bucket objects, so
  // head_cache_ and positions_ stay valid; lane order is preserved, so
  // the sorted flags stay honest.
  for (Bucket& b : wheel_) {
    b.items.reserve(wide);
    b.narrow.reserve(narrow);
  }
  for (Bucket& b : rung_) {
    b.items.reserve(wide);
    b.narrow.reserve(narrow);
  }
  // A rewindow pours the whole live window into the bag: size the bag for
  // twice the current population of each lane so that cannot allocate.
  std::size_t live_wide = bag_.size();
  std::size_t live_narrow = bag_narrow_.size();
  for (const Bucket& b : wheel_) {
    live_wide += b.items.size();
    live_narrow += b.narrow.size();
  }
  for (const Bucket& b : rung_) {
    live_wide += b.items.size();
    live_narrow += b.narrow.size();
  }
  bag_.reserve(2 * live_wide);
  bag_narrow_.reserve(2 * live_narrow);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    if (!free_.empty()) {
      // The next schedule's slot record is a random access into the pool;
      // start pulling it while this event is being filled in.
      __builtin_prefetch(&slots_[free_.back()], 1);
    }
    return slot;
  }
  slots_.emplace_back();
  fns_.emplace_back();
  positions_.push_back(0);
  FTGCS_ASSERT(slots_.size() < kInlineBase);  // inline range stays unused
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

bool EventQueue::decode_live(EventId id, std::uint32_t& slot) const {
  if (!id) return false;
  slot = static_cast<std::uint32_t>(id.value >> 32) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  return slot < slots_.size() && slots_[slot].gen == gen;
}

void EventQueue::push_overflow(const Entry& entry) {
  // The overflow tier is an UNSORTED bag. Order is never consulted —
  // reseed() scans it linearly to build the next window — so a push is
  // one append, a removal one swap-remove, a far-future re-aim an
  // in-place overwrite.
  if (!entry.is_inline()) {
    positions_[entry.slot()] = static_cast<std::uint64_t>(bag_.size());
  }
  bag_.push_back(entry);
  ++stats_.overflow_pushes;
  const std::size_t occ = bag_.size() + bag_narrow_.size();
  if (occ > stats_.overflow_peak) stats_.overflow_peak = occ;
}

namespace {

/// Clamped bucket index for a bucket offset. `!(off < hi)` (not `>=`)
/// deliberately catches NaN and +inf as well: offsets of events scheduled
/// at kTimeInfinity (or computed against an infinite-width degenerate
/// window) land in the last bucket, whose drain sort still pops them in
/// exact (time, seq) order — matching the heap backend.
std::size_t clamp_bucket_index(double off, std::size_t lo, std::size_t hi) {
  if (!(off < static_cast<double>(hi))) return hi;
  if (off <= static_cast<double>(lo)) return lo;
  return static_cast<std::size_t>(off);
}

}  // namespace

void EventQueue::bucket_insert(Bucket& bucket, bool rung, std::size_t index,
                               const Entry& entry) {
  if (!entry.is_inline()) {
    positions_[entry.slot()] = encode_bucket_pos(rung, index, bucket.items.size());
  }
  bucket.items.push_back(entry);
  // If this is the drain head, the next pop re-sorts the remaining wide
  // span (the untouched narrow lane keeps its flag); for a not-yet-reached
  // bucket the flag is false already. The inserted entry may be
  // non-drainable, so the horizon-scan cache drops with it.
  bucket.sorted_wide = false;
  bucket.scan_valid = false;
  if (rung) {
    ++rung_live_;
  } else {
    ++wheel_live_;
  }
}

void EventQueue::insert_ladder(const Entry& entry) {
  // An empty window accepts nothing: pushes accumulate in the overflow
  // tier and the next pop reseeds a fresh window around them. This keeps
  // the one invariant everything rests on — every overflow entry is
  // (time, seq)-after every window entry.
  if (entry.at >= win_end_ || wheel_live_ + rung_live_ == 0) {
    push_overflow(entry);
    return;
  }
  // Clamping low to the drain bucket (including times below the window
  // origin, which are legal at queue level) preserves exact pop order:
  // the drain bucket re-sorts, and everything earlier has already fired.
  const std::size_t index =
      clamp_bucket_index((entry.at - win_start_) / bucket_width_, wheel_cur_,
                         wheel_nb_ - 1);
  if (index == wheel_cur_ && rung_active_) {
    const std::size_t sub =
        clamp_bucket_index((entry.at - rung_start_) / rung_width_, rung_cur_,
                           rung_nb_ - 1);
    bucket_insert(rung_[sub], /*rung=*/true, sub, entry);
    return;
  }
  bucket_insert(wheel_[index], /*rung=*/false, index, entry);
}

void EventQueue::insert_narrow(const NarrowEntry& entry) {
  // Mirrors insert_ladder for the slotless 16-byte lane: same window test,
  // same clamped bucket routing, so a narrow delivery lands in exactly the
  // bucket (and fires in exactly the order) its 32-byte twin would have.
  if (entry.at >= win_end_ || wheel_live_ + rung_live_ == 0) {
    bag_narrow_.push_back(entry);
    ++stats_.overflow_pushes;
    const std::size_t occ = bag_.size() + bag_narrow_.size();
    if (occ > stats_.overflow_peak) stats_.overflow_peak = occ;
    return;
  }
  const std::size_t index =
      clamp_bucket_index((entry.at - win_start_) / bucket_width_, wheel_cur_,
                         wheel_nb_ - 1);
  Bucket* bucket = &wheel_[index];
  bool rung = false;
  if (index == wheel_cur_ && rung_active_) {
    const std::size_t sub =
        clamp_bucket_index((entry.at - rung_start_) / rung_width_, rung_cur_,
                           rung_nb_ - 1);
    bucket = &rung_[sub];
    rung = true;
  }
  bucket->narrow.push_back(entry);
  bucket->sorted_narrow = false;  // the wide lane is untouched
  bucket->scan_valid = false;
  if (rung) {
    ++rung_live_;
  } else {
    ++wheel_live_;
  }
}

void EventQueue::insert_ladder_group(Time base, const Duration* delays,
                                     std::size_t count, EventKind kind,
                                     SinkId sink, const EventPayload& proto,
                                     std::int32_t first_dest,
                                     const std::int32_t* rest_dests) {
  std::uint32_t gid;
  if (!free_gids_.empty()) {
    gid = free_gids_.back();
    free_gids_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
    // gids ride in the entry key's slot field; keep them out of the
    // inline-sentinel range so a narrow key can never read as inline.
    FTGCS_ASSERT(groups_.size() < kInlineBase);
  }
  GroupRec& g = groups_[gid];
  g.base_seq = next_seq_;
  g.rest = rest_dests;
  g.first_dest = first_dest;
  g.a = proto.a;
  g.b = proto.b;
  g.d = proto.d;
  g.sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
  g.live = static_cast<std::uint32_t>(count);
  // One bump of `count`: delivery i gets base_seq + i, exactly the seqs
  // `count` sequential schedule_fire_only calls would have consumed.
  next_seq_ += count;
  FTGCS_ASSERT(next_seq_ < (std::uint64_t{1} << kSeqBits));
  ++stats_.group_inserts;
  stats_.narrow_events += count;
  NarrowEntry e;
  for (std::size_t i = 0; i < count; ++i) {
    FTGCS_EXPECTS(delays[i] >= 0.0);
    e.at = base + delays[i];
    e.key = (g.base_seq + i) << kSlotBits | gid;
    insert_narrow(e);
  }
}

void EventQueue::remove_resident(std::uint32_t slot) {
  const std::uint64_t pos = positions_[slot];
  if (pos < (std::uint64_t{1} << 32)) {
    // Overflow bag: swap-remove (the kHeap backend never routes through
    // here — its cancel path uses remove_at on the real heap directly).
    const std::size_t idx = static_cast<std::size_t>(pos);
    const Entry moved = bag_.back();
    bag_.pop_back();
    if (idx < bag_.size()) {
      bag_[idx] = moved;
      if (!moved.is_inline()) {
        positions_[moved.slot()] = static_cast<std::uint64_t>(idx);
      }
    }
    return;
  }
  const bool rung = (pos & kRungBit) != 0;
  const std::size_t bucket_index =
      static_cast<std::size_t>(((pos & ~kRungBit) >> 32) - 1);
  std::size_t idx = static_cast<std::uint32_t>(pos);
  Bucket& bucket = rung ? rung_[bucket_index] : wheel_[bucket_index];
  if (idx >= bucket.items.size() || bucket.items[idx].slot() != slot) {
    // The recorded index went stale when the bucket was sorted for drain
    // (sort_bucket skips the positions rewrite). The bucket is still the
    // right one; locate the entry by its unique slot.
    idx = 0;
    while (bucket.items[idx].slot() != slot) ++idx;
  }
  const Entry moved = bucket.items.back();
  bucket.items.pop_back();
  if (idx < bucket.items.size()) {
    bucket.items[idx] = moved;
    if (!moved.is_inline()) {
      positions_[moved.slot()] = encode_bucket_pos(rung, bucket_index, idx);
    }
  }
  bucket.sorted_wide = false;  // a swap-remove breaks the wide drain order
  bucket.scan_valid = false;
  if (rung) {
    --rung_live_;
  } else {
    --wheel_live_;
  }
}

void EventQueue::sort_bucket(Bucket& bucket) {
  // Descending (time, seq): pops are pop_back, so the live span is always
  // exactly `items` and cancel stays a swap-remove. Positions are NOT
  // rewritten — that would be one random-access write per event into the
  // multi-MB positions_ array. Instead they go stale and remove_resident
  // verifies the slot before trusting an index (scan fallback; only the
  // drain bucket is ever sorted, so the case is rare and the scan short).
  // Lanes sort independently: a clean lane (common when only the delivery
  // band's narrow inserts dirtied the head) keeps its existing order —
  // pops and the unordered compaction both preserve it.
  ++stats_.sorts;
  if (!bucket.sorted_wide) {
    std::sort(bucket.items.begin(), bucket.items.end(),
              [](const Entry& a, const Entry& b) { return earlier(b, a); });
    bucket.sorted_wide = true;
    stats_.sorted_entries += bucket.items.size();
  }
  if (!bucket.sorted_narrow) {
    std::sort(bucket.narrow.begin(), bucket.narrow.end(),
              [](const NarrowEntry& a, const NarrowEntry& b) {
                return earlier(b, a);
              });
    bucket.sorted_narrow = true;
    stats_.sorted_entries += bucket.narrow.size();
  }
  head_cache_ = &bucket;
}

void EventQueue::spawn_rung(Bucket& bucket) {
  head_cache_ = nullptr;  // rung_ may reallocate below
  const std::size_t n = bucket_size(bucket);
  rung_nb_ = std::clamp(n / kRungFanout, kMinBuckets, kMaxRungBuckets);
  if (rung_.size() < rung_nb_) rung_.resize(rung_nb_);
  Time tmin = bucket.items.empty() ? bucket.narrow.front().at
                                   : bucket.items.front().at;
  Time tmax = tmin;
  for (const Entry& e : bucket.items) {
    tmin = std::min(tmin, e.at);
    tmax = std::max(tmax, e.at);
  }
  for (const NarrowEntry& e : bucket.narrow) {
    tmin = std::min(tmin, e.at);
    tmax = std::max(tmax, e.at);
  }
  if (!std::isfinite(tmin)) tmin = 0.0;  // see reseed(): avoid NaN offsets
  rung_start_ = tmin;
  rung_width_ = std::max((tmax - tmin) / static_cast<double>(rung_nb_),
                         std::max(std::abs(tmin), 1.0) * 1e-15);
  for (const Entry& e : bucket.items) {
    const std::size_t sub = clamp_bucket_index(
        (e.at - rung_start_) / rung_width_, 0, rung_nb_ - 1);
    Bucket& target = rung_[sub];
    if (!e.is_inline()) {
      positions_[e.slot()] =
          encode_bucket_pos(/*rung=*/true, sub, target.items.size());
    }
    target.items.push_back(e);
    target.sorted_wide = false;
    target.scan_valid = false;
  }
  for (const NarrowEntry& e : bucket.narrow) {
    const std::size_t sub = clamp_bucket_index(
        (e.at - rung_start_) / rung_width_, 0, rung_nb_ - 1);
    Bucket& target = rung_[sub];  // narrow entries have no position word
    target.narrow.push_back(e);
    target.sorted_narrow = false;
    target.scan_valid = false;
  }
  rung_live_ += n;
  wheel_live_ -= n;
  bucket.items.clear();
  bucket.narrow.clear();
  bucket.sorted_wide = false;
  bucket.sorted_narrow = false;
  bucket.scan_valid = false;
  rung_cur_ = 0;
  rung_active_ = true;
  ++stats_.rung_spawns;
}

void EventQueue::reseed() {
  FTGCS_ASSERT(wheel_live_ == 0 && rung_live_ == 0 &&
               !(bag_.empty() && bag_narrow_.empty()));
  head_cache_ = nullptr;  // wheel_ may reallocate below
  rung_active_ = false;
  const std::size_t n = bag_.size() + bag_narrow_.size();
  Time tmin = bag_.empty() ? bag_narrow_.front().at : bag_.front().at;
  Time tmax = tmin;
  for (const Entry& e : bag_) {
    tmin = std::min(tmin, e.at);
    tmax = std::max(tmax, e.at);
  }
  for (const NarrowEntry& e : bag_narrow_) {
    tmin = std::min(tmin, e.at);
    tmax = std::max(tmax, e.at);
  }
  wheel_nb_ = std::clamp(n, kMinBuckets, kMaxBuckets);
  if (wheel_.size() < wheel_nb_) wheel_.resize(wheel_nb_);
  // Events at kTimeInfinity (legal, if unusual) would make every offset
  // NaN if the window originated at infinity; origin 0 keeps their
  // offsets +inf instead, which clamp_bucket_index sends to the last
  // bucket — still exact (time, seq) pop order.
  const bool finite = std::isfinite(tmin);
  if (!finite) tmin = 0.0;
  // Auto-tune: a few events per bucket at the observed density, with the
  // window stretched kWindowStretch past the span so steady-state pushes
  // keep landing in buckets (see the constant's comment). The width floor
  // keeps indices finite when the whole population shares one timestamp
  // (relative epsilon, so 1e9-scale horizons still resolve).
  const double floor = std::max(std::abs(tmin), 1.0) * 1e-15;
  bucket_width_ = std::max(
      kWindowStretch * (tmax - tmin) / static_cast<double>(wheel_nb_), floor);
  // After a rewindow the head's own density sets the width instead, and
  // the window ends where its buckets end: entries beyond stay in the bag.
  const bool partial = finite && dense_width_ > 0.0 &&
                       dense_width_ < bucket_width_;
  if (partial) bucket_width_ = std::max(dense_width_, floor);
  win_start_ = tmin;
  win_end_ = win_start_ + bucket_width_ * static_cast<double>(wheel_nb_);
  wheel_cur_ = 0;
  // The bag is a plain vector: transfer with one linear scan, no pops;
  // entries that stay are compacted in place (their positions rewritten).
  std::size_t keep = 0;
  for (const Entry& e : bag_) {
    if (partial && e.at >= win_end_) {
      if (!e.is_inline()) positions_[e.slot()] = keep;
      bag_[keep++] = e;
      continue;
    }
    const std::size_t index = clamp_bucket_index(
        (e.at - win_start_) / bucket_width_, 0, wheel_nb_ - 1);
    Bucket& target = wheel_[index];
    if (!e.is_inline()) {
      positions_[e.slot()] =
          encode_bucket_pos(/*rung=*/false, index, target.items.size());
    }
    target.items.push_back(e);
    target.sorted_wide = false;
    target.scan_valid = false;
  }
  bag_.resize(keep);
  std::size_t keep_narrow = 0;
  for (const NarrowEntry& e : bag_narrow_) {
    if (partial && e.at >= win_end_) {
      bag_narrow_[keep_narrow++] = e;
      continue;
    }
    const std::size_t index = clamp_bucket_index(
        (e.at - win_start_) / bucket_width_, 0, wheel_nb_ - 1);
    Bucket& target = wheel_[index];
    target.narrow.push_back(e);
    target.sorted_narrow = false;
    target.scan_valid = false;
  }
  bag_narrow_.resize(keep_narrow);
  wheel_live_ = n - keep - keep_narrow;
  // tmin itself always transfers, so the window is never empty.
  FTGCS_ASSERT(wheel_live_ != 0);
  // A window too narrow for the population costs a bag scan per handful
  // of events: when the transfer did not pay for the scan at the hot-head
  // rate, later reseeds fall back to the span-derived width.
  if (partial && wheel_live_ * kHotWork < n) dense_width_ = 0.0;
  ++stats_.reseeds;
  stats_.bucket_count = std::max(stats_.bucket_count, wheel_nb_);
  win_fired0_ = fired_count();
  win_work0_ = ordering_work();
  win_seeded_ = wheel_live_;
}

double EventQueue::hot_head_width(const Bucket& bucket) const {
  const std::uint64_t fired = fired_count() - win_fired0_;
  if (fired < std::max<std::uint64_t>(kHotMinFired, win_seeded_) ||
      ordering_work() - win_work0_ < kHotWork * fired) {
    return 0.0;
  }
  // Brown's calendar-queue resize rule, applied to the head bucket: its
  // mean entry separation, so each of its entries would get a bucket of
  // its own. Both lanes are sorted descending: the span is O(1) to read.
  Time lo = kTimeInfinity;
  Time hi = -kTimeInfinity;
  if (!bucket.items.empty()) {
    lo = bucket.items.back().at;
    hi = bucket.items.front().at;
  }
  if (!bucket.narrow.empty()) {
    lo = std::min(lo, bucket.narrow.back().at);
    hi = std::max(hi, bucket.narrow.front().at);
  }
  const double width = (hi - lo) / static_cast<double>(bucket_size(bucket));
  return width > 0.0 && width * kMinShrink < bucket_width_ ? width : 0.0;
}

void EventQueue::rewindow(double width) {
  FTGCS_ASSERT(!rung_active_);
  head_cache_ = nullptr;
  for (std::size_t b = wheel_cur_; b < wheel_nb_; ++b) {
    Bucket& bucket = wheel_[b];
    for (const Entry& e : bucket.items) {
      if (!e.is_inline()) positions_[e.slot()] = bag_.size();
      bag_.push_back(e);
    }
    bag_narrow_.insert(bag_narrow_.end(), bucket.narrow.begin(),
                       bucket.narrow.end());
    bucket.items.clear();
    bucket.narrow.clear();
    bucket.sorted_wide = false;
    bucket.sorted_narrow = false;
    bucket.scan_valid = false;
  }
  wheel_live_ = 0;
  wheel_cur_ = wheel_nb_;
  dense_width_ = width;
  ++stats_.rewindows;
}

bool EventQueue::prepare_head() {
  for (;;) {
    if (rung_active_) {
      while (rung_cur_ < rung_nb_ && bucket_empty(rung_[rung_cur_])) {
        ++rung_cur_;
      }
      if (rung_cur_ < rung_nb_) {
        Bucket& bucket = rung_[rung_cur_];
        if (!bucket_sorted(bucket)) sort_bucket(bucket);
        head_cache_ = &bucket;
        return true;
      }
      rung_active_ = false;
      ++wheel_cur_;
    }
    while (wheel_cur_ < wheel_nb_ && bucket_empty(wheel_[wheel_cur_])) {
      ++wheel_cur_;
    }
    if (wheel_cur_ < wheel_nb_) {
      Bucket& bucket = wheel_[wheel_cur_];
      if (!bucket_sorted(bucket) && bucket_size(bucket) > kRungSpawnThreshold) {
        spawn_rung(bucket);
        continue;
      }
      if (!bucket_sorted(bucket)) {
        sort_bucket(bucket);
        // A head that keeps absorbing inserts is re-sorted per pop: the
        // window is too coarse for the traffic near the drain position.
        const double width = hot_head_width(bucket);
        if (width > 0.0) {
          rewindow(width);
          continue;  // the window is empty now: reseed below
        }
      }
      head_cache_ = &bucket;
      return true;
    }
    if (bag_.empty() && bag_narrow_.empty()) return false;
    reseed();
  }
}

Time EventQueue::next_time() const {
  if (backend_ == QueueBackend::kHeap) {
    return heap_.empty() ? kTimeInfinity : heap_[0].at;
  }
  // Sorting the drain bucket is logically const: the live event set and
  // the pop order are unchanged.
  EventQueue& self = const_cast<EventQueue&>(*this);
  if (!self.prepare_head()) return kTimeInfinity;
  const Bucket& b = *self.head_cache_;
  if (!b.narrow.empty() &&
      (b.items.empty() || earlier(b.narrow.back(), b.items.back()))) {
    return b.narrow.back().at;
  }
  return b.items.back().at;
}

EventId EventQueue::push_entry(Time t, std::uint32_t slot) {
  const std::uint64_t seq = next_seq_++;
  FTGCS_ASSERT(seq < (std::uint64_t{1} << kSeqBits));
  ++stats_.wide_events;
  if (backend_ == QueueBackend::kHeap) {
    const HeapEntry entry{t, seq << kSlotBits | slot};
    heap_.emplace_back();  // grow; sift places the entry into the hole chain
    place(entry, sift_up(entry, heap_.size() - 1));
  } else {
    Entry entry;
    entry.at = t;
    entry.key = seq << kSlotBits | slot;
    insert_ladder(entry);
  }
  return EventId{(static_cast<std::uint64_t>(slot) + 1) << 32 |
                 slots_[slot].gen};
}

EventId EventQueue::schedule(Time t, Callback fn) {
  FTGCS_EXPECTS(fn != nullptr);
  const std::uint32_t slot = acquire_slot();
  slots_[slot].set(EventKind::kClosure, 0);
  fns_[slot] = std::move(fn);
  return push_entry(t, slot);
}

EventId EventQueue::schedule_typed(Time t, EventKind kind, SinkId sink,
                                   const EventPayload& payload) {
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  FTGCS_EXPECTS(sink < (1u << 24));  // packed next to the kind tag
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.set(kind, sink);
  s.payload = payload;
  return push_entry(t, slot);
}

void EventQueue::schedule_fire_only(Time t, EventKind kind, SinkId sink,
                                    const EventPayload& payload) {
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  FTGCS_EXPECTS(sink < (1u << 24));
  if (backend_ == QueueBackend::kHeap || payload.x != 0.0 ||
      payload.d >= 256) {
    // The heap stores slotted entries only, and the 32-byte inline entry
    // has no room for payload.x (or a d tag beyond the inline range):
    // those events take the slotted path with identical (time, seq)
    // semantics (the returned id is simply dropped — fire-only ids are
    // unobservable).
    schedule_typed(t, kind, sink, payload);
    return;
  }
  const std::uint64_t seq = next_seq_++;
  FTGCS_ASSERT(seq < (std::uint64_t{1} << kSeqBits));
  ++stats_.wide_events;
  Entry entry;
  entry.at = t;
  entry.key = seq << kSlotBits | (kInlineBase + payload.d);
  entry.a = payload.a;
  entry.b = payload.b;
  entry.c = payload.c;
  entry.sink_kind = sink << 8 | static_cast<std::uint32_t>(kind);
  insert_ladder(entry);
}

void EventQueue::schedule_fire_only_group(Time base, const Duration* delays,
                                          std::size_t count, EventKind kind,
                                          SinkId sink,
                                          const EventPayload& proto,
                                          std::int32_t first_dest,
                                          const std::int32_t* rest_dests) {
  FTGCS_EXPECTS(kind != EventKind::kClosure);
  FTGCS_EXPECTS(sink < (1u << 24));
  if (count == 0) return;
  if (backend_ == QueueBackend::kHeap || proto.x != 0.0) {
    // Per-delivery fallback consumes sequence numbers in exactly the same
    // order, so the pop sequence is unchanged (the heap keeps its slotted
    // reference layout; x ≠ 0 has no home in the group record).
    EventPayload pl = proto;
    for (std::size_t i = 0; i < count; ++i) {
      pl.c = i == 0 ? first_dest : rest_dests[i - 1];
      schedule_fire_only(base + delays[i], kind, sink, pl);
    }
    return;
  }
  insert_ladder_group(base, delays, count, kind, sink, proto, first_dest,
                      rest_dests);
}

bool EventQueue::cancel(EventId id) {
  std::uint32_t slot;
  if (!decode_live(id, slot)) return false;
  if (backend_ == QueueBackend::kHeap) {
    remove_at(static_cast<std::size_t>(positions_[slot]));
  } else {
    remove_resident(slot);
  }
  bump_generation(slot);
  if (slots_[slot].kind() == EventKind::kClosure) fns_[slot] = nullptr;
  free_.push_back(slot);
  return true;
}

bool EventQueue::reschedule(EventId id, Time t) {
  std::uint32_t slot;
  if (!decode_live(id, slot)) return false;
  // Fresh sequence number: ties at the new time fire after everything
  // already scheduled there, exactly as a cancel + schedule would.
  const std::uint64_t seq = next_seq_++;
  FTGCS_ASSERT(seq < (std::uint64_t{1} << kSeqBits));
  const std::uint64_t key = seq << kSlotBits | slot;
  const std::uint64_t pos = positions_[slot];
  if (backend_ == QueueBackend::kHeap) {
    sift(HeapEntry{t, key}, static_cast<std::size_t>(pos));
    return true;
  }
  if (pos < (std::uint64_t{1} << 32) &&
      (t >= win_end_ || wheel_live_ + rung_live_ == 0)) {
    // Overflow entry staying in the overflow tier: the bag is unsorted,
    // so a far-future timer re-aim is one in-place overwrite.
    Entry& entry = bag_[static_cast<std::size_t>(pos)];
    entry.at = t;
    entry.key = key;
    return true;
  }
  if (pos >= (std::uint64_t{1} << 32) && (pos & kRungBit) == 0 &&
      t < win_end_) {
    // Timer re-aims move fire times by O(rho) — almost always within the
    // same bucket. Overwriting in place (the drain sort orders it) skips
    // the swap-remove + reinsert round trip.
    const std::size_t bucket_index =
        static_cast<std::size_t>((pos >> 32) - 1);
    const std::size_t idx = static_cast<std::uint32_t>(pos);
    const double off = (t - win_start_) / bucket_width_;
    const bool same_bucket = bucket_index > wheel_cur_ &&
                             off >= static_cast<double>(bucket_index) &&
                             off < static_cast<double>(bucket_index + 1);
    if (same_bucket) {
      Bucket& bucket = wheel_[bucket_index];
      if (idx < bucket.items.size() && bucket.items[idx].slot() == slot) {
        bucket.items[idx].at = t;
        bucket.items[idx].key = key;
        bucket.sorted_wide = false;
        bucket.scan_valid = false;
        return true;
      }
    }
  }
  remove_resident(slot);
  Entry entry;
  entry.at = t;
  entry.key = key;
  insert_ladder(entry);
  return true;
}

std::size_t EventQueue::pop_run_unordered(Time t_end, std::uint32_t sink_kind,
                                          BatchPredicate pred, const void* ctx,
                                          BatchedEvent* out, std::size_t max) {
  // The heap backend stays the ordered reference front-end: every event
  // fires through the exact (time, seq) path, which is what the
  // differential tests diff the partitioned ladder against.
  if (backend_ == QueueBackend::kHeap) return 0;
  std::size_t n = 0;
  // Running partition horizon: the earliest non-drainable entry seen so
  // far. Emission is STRICT (`at < bad_lim`): ties with a barrier keep
  // their (time, seq) interleaving on the ordered path, so only events
  // whose relative order is provably unobservable are reordered.
  Time bad_lim = kTimeInfinity;

  // Sweeps one bucket: refreshes its horizon scan if stale, emits every
  // drainable entry strictly below min(horizon, t_end), and compacts the
  // survivors in place (rewriting their positions — unlike the drain
  // sort, compaction moves entries that may later be cancelled or
  // re-aimed). Returns false when the sweep must stop: a sorted
  // (partially drained) head bucket, or the out buffer filled.
  const auto drain_bucket = [&](Bucket& bucket, bool rung,
                                std::size_t index) -> bool {
    std::vector<Entry>& items = bucket.items;
    std::vector<NarrowEntry>& narrow = bucket.narrow;
    if (items.empty() && narrow.empty()) return true;
    if (bucket_sorted(bucket)) {
      // A partially drained head belongs to the ordered path (its pops
      // are in flight); its minimum is the earlier of the two lanes' back
      // entries, and every later bucket sits at or above this bucket's
      // range — stop here.
      Time head = kTimeInfinity;
      if (!items.empty()) head = std::min(head, items.back().at);
      if (!narrow.empty()) head = std::min(head, narrow.back().at);
      bad_lim = std::min(bad_lim, head);
      return false;
    }
    bool decoded = false;  // this call's scan filled unordered_decode_
    if (!bucket.scan_valid) {
      // Pass 1 — horizon scan: the earliest entry that must NOT be
      // reordered. Slotted entries carry sink_kind 0 (never a real
      // channel), so timers/closures/cancellables are caught by the same
      // compare as foreign-channel traffic. The drainable minimum rides
      // along as the repeat-sweep guard below. Narrow decodes (a group
      // record plus a random adjacency read each) are kept for pass 2 —
      // any entry this scan admits, the emit below reuses verbatim.
      Time bad = kTimeInfinity;
      Time good = kTimeInfinity;
      EventPayload pl;
      for (const Entry& e : items) {
        if (e.sink_kind == sink_kind) {
          pl.a = e.a;
          pl.b = e.b;
          pl.c = e.c;
          pl.d = e.inline_d();
          if (pred(pl, ctx)) {
            good = std::min(good, e.at);
            continue;
          }
        }
        bad = std::min(bad, e.at);
      }
      const std::size_t mn0 = narrow.size();
      if (unordered_decode_.size() < mn0) unordered_decode_.resize(mn0);
      for (std::size_t i = 0; i < mn0; ++i) {
        const NarrowEntry& e = narrow[i];
        if (narrow_sink_kind(e) == sink_kind) {
          narrow_payload(e, unordered_decode_[i]);
          if (pred(unordered_decode_[i], ctx)) {
            good = std::min(good, e.at);
            continue;
          }
        }
        bad = std::min(bad, e.at);
      }
      decoded = true;
      stats_.horizon_scanned += items.size() + mn0;
      bucket.bad_floor = bad;
      bucket.good_floor = good;
      bucket.scan_valid = true;
    }
    const Time lim = std::min(bad_lim, bucket.bad_floor);
    if (bucket.good_floor >= lim || bucket.good_floor > t_end) {
      // Nothing drainable below the horizon: O(1) skip on repeat sweeps
      // (the common shape while the ordered path works toward a barrier).
      bad_lim = std::min(bad_lim, bucket.bad_floor);
      return true;
    }
    // Pass 2 — emit + compact, one lane at a time (emission is unordered,
    // so lane interleaving is free). `lim ≤ bad_floor`, so `at < lim`
    // admits only drainable entries: no predicate re-evaluation here.
    const std::size_t m = items.size();
    std::size_t w = 0;
    std::size_t r = 0;
    for (; r < m; ++r) {
      const Entry& e = items[r];
      if (e.at < lim && e.at <= t_end) {
        if (n == max) break;  // buffer full: keep the tail
        BatchedEvent& slot = out[n++];
        slot.at = e.at;
        slot.payload.a = e.a;
        slot.payload.b = e.b;
        slot.payload.c = e.c;
        slot.payload.d = e.inline_d();
        slot.payload.x = 0.0;
        continue;
      }
      if (w != r) {
        items[w] = e;
        if (!e.is_inline()) {
          positions_[e.slot()] = encode_bucket_pos(rung, index, w);
        }
      }
      ++w;
    }
    for (; r < m; ++r) {  // buffer-full tail: compact without emitting
      if (w != r) {
        items[w] = items[r];
        if (!items[w].is_inline()) {
          positions_[items[w].slot()] = encode_bucket_pos(rung, index, w);
        }
      }
      ++w;
    }
    std::size_t took = m - w;
    if (m != w) items.resize(w);  // Entry is trivially destructible
    // Narrow lane: the same emit + compact, minus the positions rewrite
    // (narrow entries are never cancellable) plus the group retire.
    const std::size_t mn = narrow.size();
    std::size_t wn = 0;
    std::size_t rn = 0;
    for (; rn < mn; ++rn) {
      const NarrowEntry& e = narrow[rn];
      if (e.at < lim && e.at <= t_end) {
        if (n == max) break;
        BatchedEvent& slot = out[n++];
        slot.at = e.at;
        // Everything below lim passed the scan's predicate, so a scan run
        // by THIS call already decoded it (same index — the lane has not
        // been compacted in between). A cached scan means decoding here.
        if (decoded) {
          slot.payload = unordered_decode_[rn];
        } else {
          narrow_payload(e, slot.payload);
        }
        narrow_retire(e.key);
        continue;
      }
      if (wn != rn) narrow[wn] = e;
      ++wn;
    }
    for (; rn < mn; ++rn) {
      if (wn != rn) narrow[wn] = narrow[rn];
      ++wn;
    }
    took += mn - wn;
    if (mn != wn) narrow.resize(wn);
    if (took != 0) {
      if (rung) {
        rung_live_ -= took;
      } else {
        wheel_live_ -= took;
      }
    }
    if (n != max) {
      // Full pass: every drainable entry below min(lim, t_end) was
      // emitted, so the survivors sit at or above that. (On a buffer-full
      // break the old bound is still valid — just looser.)
      bucket.good_floor = std::min(lim, t_end);
    }
    bad_lim = std::min(bad_lim, bucket.bad_floor);
    return n != max;
  };

  // Sweep buckets in calendar order from the current drain position.
  // Bucket b's lower time bound prunes the sweep: entries of every bucket
  // except the drain head itself sit at or above their bucket's origin
  // (inserts floor the offset; only the drain bucket takes low-clamped
  // stragglers), so once a bucket origin reaches min(horizon, t_end)
  // nothing further can be emitted. A non-infinite horizon therefore
  // stops the sweep within one bucket of the barrier — the "sliver" the
  // ordered path still sorts.
  for (;;) {
    if (wheel_live_ + rung_live_ == 0) {
      // Window drained with no barrier found: rebuild it from the
      // overflow tier, exactly as prepare_head would, and keep sweeping.
      if (bag_.empty() && bag_narrow_.empty()) break;
      reseed();
    }
    bool cont = true;
    if (rung_active_) {
      for (std::size_t s = rung_cur_; cont && s < rung_nb_; ++s) {
        if (s != rung_cur_) {
          const Time lb =
              rung_start_ + static_cast<double>(s) * rung_width_;
          if (lb > t_end || lb >= bad_lim) {
            cont = false;
            break;
          }
        }
        cont = drain_bucket(rung_[s], /*rung=*/true, s);
      }
      for (std::size_t b = wheel_cur_ + 1; cont && b < wheel_nb_; ++b) {
        const Time lb = win_start_ + static_cast<double>(b) * bucket_width_;
        if (lb > t_end || lb >= bad_lim) break;
        cont = drain_bucket(wheel_[b], /*rung=*/false, b);
      }
    } else {
      for (std::size_t b = wheel_cur_; cont && b < wheel_nb_; ++b) {
        if (b != wheel_cur_) {
          const Time lb =
              win_start_ + static_cast<double>(b) * bucket_width_;
          if (lb > t_end || lb >= bad_lim) break;
        }
        cont = drain_bucket(wheel_[b], /*rung=*/false, b);
      }
    }
    if (!cont || wheel_live_ + rung_live_ != 0) break;
  }
  if (n != 0) {
    ++stats_.unordered_runs;
    stats_.unordered_events += n;
  }
  return n;
}

EventQueue::Fired EventQueue::pop() {
  Fired fired;
  const bool popped = pop_if_at_most(kTimeInfinity, fired);
  FTGCS_EXPECTS(popped);
  return fired;
}

}  // namespace ftgcs::sim
