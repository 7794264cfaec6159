// Ordered reference for sim::EventQueue: the test oracle the ladder queue
// is diffed against (tests/test_queue_differential.cpp,
// tests/test_batch_drain.cpp).
//
// A std::map keyed by (time, seq) holds every live event; an id map finds
// a cancellable event's key. Nothing here is clever, so its pop order is
// the definition of correct: earliest time first, ties in sequence order.
// Sequence numbers are consumed exactly as EventQueue consumes them — one
// per schedule (typed or fire-only), a fresh one per reschedule, and one
// per delivery of a fan-out group, in delivery order — so
// scheduled_count() must agree with the queue's after any op stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "sim/event.h"
#include "sim/time_types.h"
#include "support/assert.h"

namespace ftgcs::testing {

class QueueOracle {
 public:
  /// Handle of a cancellable event; 0 marks a fire-only event.
  using Id = std::uint64_t;

  struct Fired {
    sim::Time at = 0.0;
    Id id = 0;
    sim::EventKind kind = sim::EventKind::kClosure;
    sim::SinkId sink = sim::kInvalidSink;
    sim::EventPayload payload;
  };

  Id schedule_typed(sim::Time t, sim::EventKind kind, sim::SinkId sink,
                    const sim::EventPayload& payload) {
    const Id id = next_id_++;
    const Key key = insert(t, Event{id, kind, sink, payload});
    live_.emplace(id, key);
    return id;
  }

  void schedule_fire_only(sim::Time t, sim::EventKind kind, sim::SinkId sink,
                          const sim::EventPayload& payload) {
    insert(t, Event{0, kind, sink, payload});
  }

  /// Delivery i fires at base + delays[i] with payload c = first_dest
  /// (i = 0) or rest_dests[i − 1]; seqs are taken in delivery order.
  void schedule_fire_only_group(sim::Time base, const sim::Duration* delays,
                                std::size_t count, sim::EventKind kind,
                                sim::SinkId sink,
                                const sim::EventPayload& proto,
                                std::int32_t first_dest,
                                const std::int32_t* rest_dests) {
    sim::EventPayload payload = proto;
    for (std::size_t i = 0; i < count; ++i) {
      payload.c = i == 0 ? first_dest : rest_dests[i - 1];
      schedule_fire_only(base + delays[i], kind, sink, payload);
    }
  }

  bool cancel(Id id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    events_.erase(it->second);
    live_.erase(it);
    return true;
  }

  /// Moves a live event to `t` under a fresh sequence number.
  bool reschedule(Id id, sim::Time t) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    const auto node = events_.find(it->second);
    const Event event = node->second;
    events_.erase(node);
    it->second = insert(t, event);
    return true;
  }

  /// The event pop() would return next, left in place.
  Fired peek() const {
    FTGCS_EXPECTS(!events_.empty());
    const auto head = events_.begin();
    Fired fired;
    fired.at = head->first.at;
    fired.id = head->second.id;
    fired.kind = head->second.kind;
    fired.sink = head->second.sink;
    fired.payload = head->second.payload;
    return fired;
  }

  Fired pop() {
    const Fired fired = peek();
    if (fired.id != 0) live_.erase(fired.id);
    events_.erase(events_.begin());
    return fired;
  }

  sim::Time next_time() const {
    return events_.empty() ? sim::kTimeInfinity : events_.begin()->first.at;
  }

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  std::uint64_t scheduled_count() const { return next_seq_ - 1; }

 private:
  struct Key {
    sim::Time at;
    std::uint64_t seq;
    bool operator<(const Key& other) const {
      return at < other.at || (at == other.at && seq < other.seq);
    }
  };
  struct Event {
    Id id;
    sim::EventKind kind;
    sim::SinkId sink;
    sim::EventPayload payload;
  };

  Key insert(sim::Time t, const Event& event) {
    const Key key{t, next_seq_++};
    events_.emplace(key, event);
    return key;
  }

  std::map<Key, Event> events_;
  std::unordered_map<Id, Key> live_;
  std::uint64_t next_seq_ = 1;
  Id next_id_ = 1;
};

}  // namespace ftgcs::testing
