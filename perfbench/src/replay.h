// Traced replay of the library's single-run path (exp::run_point with the
// FT-GCS protocol), driven through the same public calls exp/run.cpp makes,
// with a span around each call into a layer. The replay's fingerprint is
// compared against the untraced library run, so the two cannot drift apart
// unnoticed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/run.h"
#include "exp/scenario.h"

namespace perfbench {

/// In-memory span recorder (name, start, end, parent); written out once
/// the run has ended. Disabled tracers only run the wrapped call.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;  ///< index of the enclosing span; -1 = root
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    if (!enabled_) return f();
    const int id = open(name);
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->close(id); }
    } closer{this, id};
    return f();
  }

  /// Durations of every span with this name, in start order.
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;
  /// One JSON object per span: {"id","name","parent","start_ms","end_ms"}.
  void write_jsonl(const std::string& path) const;

 private:
  double now_ms() const;
  int open(const char* name);
  void close(int id);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The deterministic outcome of one run; run.py compares it exactly.
struct Fingerprint {
  double events = 0.0;
  double messages = 0.0;
  double max_local = 0.0;
  double max_global = 0.0;
  double max_intra = 0.0;
  double violations = 0.0;
  double monitor_violations = 0.0;
  bool in_local_bound = true;
  bool in_intra_bound = true;
};

Fingerprint fingerprint_of(const ftgcs::exp::RunResult& result);

/// Work counters summed over the replayed runs (maxima where noted).
struct LayerCounts {
  double events_fired = 0.0;
  double events_scheduled = 0.0;
  double unordered_events = 0.0;
  double ordered_run_events = 0.0;
  double narrow_events = 0.0;
  double entry_bytes = 0.0;
  double reseeds = 0.0;
  double rung_spawns = 0.0;
  double overflow_pushes = 0.0;
  double overflow_peak = 0.0;  ///< max
  double messages_sent = 0.0;
  double messages_delivered = 0.0;  ///< single-simulator runs only
  double fanout_sum = 0.0;          ///< Σ over nodes of (degree + loopback)
  double fanout_nodes = 0.0;
  double violations = 0.0;
  double par_windows = 0.0;
  double par_cut_edges = 0.0;     ///< max
  double par_mailbox_peak = 0.0;  ///< max
  double par_routed = 0.0;
  double par_merge_ms = 0.0;
  double par_run_ms = 0.0;
  double par_wait_ms = 0.0;
  double par_imbalance = 0.0;     ///< max
  double series_bytes = 0.0;
  double faulty_nodes = 0.0;
};

struct ReplayOptions {
  /// Stop once the system has started (before the first run_until).
  bool setup_only = false;
  /// Called once the system has started (before the first run_until).
  std::function<void()> on_started;
  /// Attach an obs::PhaseProfiler to sharded runs that do not already
  /// carry one; its sidecar goes to this path (empty = no profiler).
  std::string par_profile_path;
};

/// Replays exp::run_point(spec, seed). Throws std::runtime_error for
/// features the replay does not cover (custom drift, M_v lag, GCS
/// baseline, trace capture).
Fingerprint replay_run(const ftgcs::exp::ScenarioSpec& spec,
                       std::uint64_t seed, Tracer& tracer, LayerCounts& counts,
                       const ReplayOptions& options);

}  // namespace perfbench
