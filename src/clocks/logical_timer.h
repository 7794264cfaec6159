// Timers that fire at *logical* clock values.
//
// Algorithm 1 schedules its actions "at-time L_v(t_v(r)) + τ", i.e., at
// logical times. Since the logical clock's rate changes whenever δ, γ, or
// the hardware rate changes, the Newtonian fire time of a pending logical
// timer moves. LogicalTimerSet owns the pending timers of one logical clock
// and transparently reschedules them on every rate change (it installs
// itself as the clock's rate observer).
//
// Timers are keyed by a small integer so a protocol can name them
// (round-pulse, phase-2-end, round-end, ...) and replace/cancel by name.
// Pending timers live in a key-indexed slot vector (keys are dense by
// design) and fire as typed kTimer events whose payload is the key — the
// whole arm/fire/reschedule cycle allocates nothing. Protocols implement
// the Client interface; a legacy per-arm callback overload remains for
// tests and ad-hoc uses.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "clocks/logical_clock.h"
#include "sim/simulator.h"

namespace ftgcs::clocks {

class LogicalTimerSet final : public sim::EventSink {
 public:
  using Callback = std::function<void()>;
  using Key = std::uint32_t;

  /// Typed fire interface: `key` identifies which timer fired.
  class Client {
   public:
    virtual void on_logical_timer(Key key) = 0;

   protected:
    ~Client() = default;
  };

  /// Binds to a simulator and a clock. The set registers itself as the
  /// clock's rate observer; the clock must outlive the set. `client`
  /// receives typed fires (may be null if only the callback overload of
  /// arm() is used).
  LogicalTimerSet(sim::Simulator& simulator, LogicalClock& clock,
                  Client* client = nullptr);

  ~LogicalTimerSet();

  LogicalTimerSet(const LogicalTimerSet&) = delete;
  LogicalTimerSet& operator=(const LogicalTimerSet&) = delete;

  /// Arms (or replaces) timer `key` to fire when the logical clock reaches
  /// `logical_target`; the fire is delivered to the client. Runs exactly
  /// once, at the Newtonian time at which the (possibly rate-changing)
  /// clock first reaches the target. Requires logical_target >=
  /// clock.read(now).
  void arm(Key key, double logical_target);

  /// Legacy overload: fires `fn` instead of notifying the client.
  void arm(Key key, double logical_target, Callback fn);

  /// Cancels timer `key`; no-op if not armed. O(1).
  void cancel(Key key);

  /// Largest supported key + 1. Keys are tiny dense protocol constants
  /// (round-pulse / phase-2-end / round-end); a fixed inline array keeps
  /// the whole timer family on the owning protocol object's cache lines —
  /// no per-set heap block on the 3M-fires-per-second path.
  static constexpr Key kMaxKeys = 4;

  /// True if timer `key` is armed.
  bool armed(Key key) const {
    return key < kMaxKeys && pending_[key].armed;
  }

  std::size_t armed_count() const { return armed_count_; }

  /// EventSink: kTimer events carry the key in payload.a.
  void on_event(sim::EventKind kind, const sim::EventPayload& payload,
                sim::Time now) override;

 private:
  /// 24 bytes — a protocol's whole timer family (3 keys) shares one cache
  /// line. Closures live in the parallel fns_ vector, which stays EMPTY
  /// unless the legacy callback overload is used, so the typed fire path
  /// never touches std::function storage.
  struct Pending {
    bool armed = false;
    double target = 0.0;
    sim::EventId event;
  };

  void reschedule_all(sim::Time now);
  sim::EventId schedule_one(Key key, double target);

  sim::Simulator& sim_;
  LogicalClock& clock_;
  Client* client_;
  sim::SinkId self_ = sim::kInvalidSink;
  std::array<Pending, kMaxKeys> pending_{};  ///< indexed by key
  std::vector<Callback> fns_;  ///< sized only by the callback overload
  std::size_t armed_count_ = 0;
};

}  // namespace ftgcs::clocks
