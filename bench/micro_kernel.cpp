// M1 — microbenchmarks of the simulation substrate and the protocol hot
// paths (google-benchmark).
//
// Queue benchmarks keep their historical `…Ladder` names (from when a
// heap backend ran beside the ladder) so BENCH_kernel.json keeps matching
// them across commits. The custom
// main() refuses to publish JSON when the google-benchmark library itself
// was built without NDEBUG ("library_build_type": "debug"): numbers from a
// debug benchmark runtime must never become the committed baseline (use
// -DFTGCS_BENCHMARK_SOURCE_DIR or -DFTGCS_BUNDLED_BENCHMARK to get a
// genuinely Release-built dependency; see CMakeLists.txt).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "byz/fault_plan.h"
#include "core/ftgcs_system.h"
#include "core/triggers.h"
#include "net/augmented.h"
#include "net/graph.h"
#include "net/network.h"
#include "par/sharded_system.h"
#include "exp/topology_graph.h"
#include "metrics/skew_tracker.h"
#include "net/channel.h"
#include "obs/histogram.h"
#include "obs/sampler.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/collector.h"
#include "trace/monitor.h"
#include "trace/writer.h"

namespace {

using namespace ftgcs;

// ---- event-queue kernels ----------------------------------------------------

void BM_EventQueueScheduleFireLadder(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(rng.next_double(), [] {});
    }
    while (!queue.empty()) {
      queue.pop().fn();
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFireLadder);

void BM_EventQueueCancelHeavyLadder(benchmark::State& state) {
  sim::Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(queue.schedule(rng.next_double(), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      queue.cancel(ids[i]);
    }
    while (!queue.empty()) {
      queue.pop().fn();
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavyLadder);

// The typed path is what the protocol stack actually runs on (pulses,
// timers, drift, probes): POD payload, slot pool, no closures, no
// allocation after warm-up. Counters are events/sec.

void BM_EventEngineTypedScheduleFireLadder(benchmark::State& state) {
  sim::Rng rng(6);
  struct Sink final : sim::EventSink {
    void on_event(sim::EventKind, const sim::EventPayload&,
                  sim::Time) override {}
  } sink;
  sim::EventQueue queue;
  queue.reserve(1000);
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      queue.schedule_typed(rng.next_double(), sim::EventKind::kPulse, 0, {});
    }
    while (!queue.empty()) {
      auto fired = queue.pop();
      sink.on_event(fired.kind, fired.payload, fired.at);
    }
    events += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEngineTypedScheduleFireLadder);

// The fire-only path carries all network deliveries: payload inline in the
// queue, no slot pool at all.
void BM_EventEngineFireOnlyLadder(benchmark::State& state) {
  sim::Rng rng(9);
  sim::EventQueue queue;
  queue.reserve(1000);
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      queue.schedule_fire_only(rng.next_double(), sim::EventKind::kPulse, 0,
                               {});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop().payload.a);
    }
    events += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEngineFireOnlyLadder);

void BM_EventEngineTypedCancelHeavyLadder(benchmark::State& state) {
  sim::Rng rng(7);
  sim::EventQueue queue;
  queue.reserve(1000);
  std::uint64_t events = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(1000);
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(queue.schedule_typed(rng.next_double(),
                                         sim::EventKind::kTimer, 0, {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      queue.cancel(ids[i]);
    }
    while (!queue.empty()) {
      queue.pop();
    }
    events += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEngineTypedCancelHeavyLadder);

void BM_EventEngineRescheduleLadder(benchmark::State& state) {
  // The logical-timer re-aim pattern: a standing population of timers
  // whose fire times move on every clock-rate change.
  sim::Rng rng(8);
  sim::EventQueue queue;
  queue.reserve(256);
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(queue.schedule_typed(1e9 + rng.next_double(),
                                       sim::EventKind::kTimer, 0, {}));
  }
  for (auto _ : state) {
    for (auto& id : ids) {
      queue.reschedule(id, 1e9 + rng.next_double());
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EventEngineRescheduleLadder);

// The 40k-node regime in miniature: a deep standing population (range(0)
// in-flight events) with steady schedule-ahead/pop cycles: the calendar
// window must stay O(1) per event as the population grows.
void BM_EventEngineDeepPopulationLadder(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  sim::Rng rng(11);
  sim::EventQueue queue;
  queue.reserve(static_cast<std::size_t>(population));
  double now = 0.0;
  for (int i = 0; i < population; ++i) {
    queue.schedule_fire_only(now + rng.next_double(), sim::EventKind::kPulse,
                             0, {});
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      auto fired = queue.pop();
      now = fired.at;
      queue.schedule_fire_only(now + 0.99 + 0.01 * rng.next_double(),
                               sim::EventKind::kPulse, 0, {});
    }
    events += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventEngineDeepPopulationLadder)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(400000);

// Narrow-entry group insert kernel: one coalesced fan-out call per
// broadcast (torus degree 4 + loopback) against a standing population.
// Each call rides the 16 B narrow lane + 40 B shared group record. Items
// are deliveries popped per second.
void BM_QueueNarrowInsertLadder(benchmark::State& state) {
  constexpr int kFanout = 5;  // torus degree 4 + loopback
  static const std::int32_t kRest[kFanout - 1] = {1, 2, 3, 4};
  sim::Rng rng(41);
  sim::EventQueue queue;
  queue.reserve(8192);
  sim::EventPayload proto;
  proto.a = 7;
  proto.d = static_cast<std::uint32_t>(net::PulseKind::kClusterPulse);
  sim::Duration delays[kFanout];
  double now = 0.0;
  const auto post_group = [&] {
    for (int j = 0; j < kFanout; ++j) {
      delays[j] = 0.9 + 0.2 * rng.next_double();
    }
    queue.schedule_fire_only_group(now, delays, kFanout,
                                   sim::EventKind::kPulse, 0, proto, 0,
                                   kRest);
  };
  for (int i = 0; i < 800; ++i) post_group();  // standing population
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 200; ++i) post_group();
    for (int i = 0; i < 1000; ++i) {
      const auto fired = queue.pop();
      now = fired.at;
      benchmark::DoNotOptimize(fired.payload.c);
    }
    events += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueueNarrowInsertLadder);

// Coalesced broadcast fan-out through the real network layer: every node
// of an augmented 64-cluster torus broadcasts once (encode once, sample
// all per-edge delays, hand the queue ONE pre-encoded group), then the
// simulator drains all deliveries. This is the Network::broadcast →
// Simulator::post_fire_only_group → dispatch chain the 40k hot path
// runs on, minus the protocol logic. Items are deliveries per second.
void BM_BroadcastCoalescedFanoutLadder(benchmark::State& state) {
  struct CountSink final : net::PulseSink {
    std::uint64_t received = 0;
    void on_pulse(const net::Pulse&, sim::Time) override { ++received; }
  };
  net::AugmentedTopology topo(net::Graph::torus(8, 8), 1);
  const int n = topo.num_nodes();
  sim::Simulator sim;
  sim.reserve_events(1024);
  net::Network network(sim, &topo.adjacency(),
                       std::make_unique<net::UniformDelay>(1.0, 0.01),
                       sim::Rng(51));
  std::vector<CountSink> sinks(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) network.register_handler(id, &sinks[id]);
  std::uint64_t deliveries = 0;
  net::Pulse pulse;
  std::size_t fanout = 0;
  for (int from = 0; from < n; ++from) {
    fanout += topo.adjacency()[static_cast<std::size_t>(from)].size() + 1;
  }
  for (auto _ : state) {
    for (int from = 0; from < n; ++from) {
      pulse.sender = from;
      network.broadcast(from, pulse);
    }
    sim.run_until(sim.now() + 2.0);  // every delay < 2: drains everything
    deliveries += fanout;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
  state.counters["deliveries"] = benchmark::Counter(
      static_cast<double>(deliveries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BroadcastCoalescedFanoutLadder);

// ---- protocol kernels -------------------------------------------------------

// Columnar dispatch kernel: per-delivery classification + lane routing
// through NodeTable::on_pulse_run. Senders mix own-cluster members (lane
// 0 hit) and adjacent-cluster members (replica-lane scan), mirroring the
// augmented-graph traffic. NOTE on what is measured: arrival slots fill
// on the first lap and are not reset, so steady state exercises the
// routing chain + duplicate-reject early-out — i.e. the DISPATCH
// overhead bound per delivery, not the slot-write body (that is covered
// end-to-end by BM_SystemTorusThroughput*). Items are deliveries/second.
void BM_NodeTablePulseRun(benchmark::State& state) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 12;
  core::FtGcsSystem system(net::Graph::torus(8, 8), std::move(config));
  system.start();
  system.run_until(1.0 * params.T);
  std::vector<sim::BatchedEvent> run;
  const auto& topo = system.topology();
  const sim::Time now = system.simulator().now();
  for (int dest = 0; dest < topo.num_nodes() && run.size() < 1024; ++dest) {
    for (int sender : system.network().neighbors(dest)) {
      sim::BatchedEvent event;
      event.at = now;
      event.payload.a = sender;
      event.payload.c = dest;
      event.payload.d =
          static_cast<std::uint32_t>(net::PulseKind::kClusterPulse);
      run.push_back(event);
    }
  }
  for (auto _ : state) {
    system.node_table().on_pulse_run(run.data(), run.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.size()));
}
BENCHMARK(BM_NodeTablePulseRun);

// Stale-level classification kernel: the batch predicate that decides, at
// pop time, whether a pulse event is a pure receive. This gate runs once
// per delivery at 40k-node scale, so its cost is throughput-critical.
void BM_NodeTablePurePulse(benchmark::State& state) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 13;
  core::FtGcsSystem system(net::Graph::torus(8, 8), std::move(config));
  system.start();
  system.run_until(2.0 * params.T);
  const core::NodeTable& table = system.node_table();
  std::vector<sim::EventPayload> payloads;
  sim::Rng rng(14);
  for (int i = 0; i < 1024; ++i) {
    sim::EventPayload payload;
    payload.a = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(system.topology().num_nodes())));
    payload.c = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(system.topology().num_nodes())));
    payload.b = static_cast<std::int32_t>(rng.below(8));
    payload.d = static_cast<std::uint32_t>(
        rng.chance(0.8) ? net::PulseKind::kMaxLevel
                        : net::PulseKind::kClusterPulse);
    payloads.push_back(payload);
  }
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    for (const sim::EventPayload& payload : payloads) {
      accepted += core::NodeTable::pure_pulse(payload, &table) ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(accepted);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_NodeTablePurePulse);

// Full protocol throughput on the torus fabric (replica estimates + level
// traffic + columnar dispatch) — the shape of the `large_torus` scaling
// workload, sized for a microbenchmark. Arg is the torus side (side²
// clusters, 4·side² nodes).
void BM_SystemTorusThroughputLadder(benchmark::State& state) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const int side = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::FtGcsSystem::Config config;
    config.params = params;
    config.seed = 15;
    auto system = std::make_unique<core::FtGcsSystem>(
        net::Graph::torus(side, side), std::move(config));
    system->start();
    state.ResumeTiming();
    system->run_until(5.0 * params.T);
    events += system->simulator().fired_events();
    // Teardown (nodes, replicas, queue, network) is not protocol
    // throughput; destroy with the clock paused.
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemTorusThroughputLadder)->Arg(4)->Arg(8);

// Sharded conservative-parallel torus throughput (src/par/): the same
// protocol workload striped over T shard worker threads advancing in
// lock-step safe windows. Tables are bit-identical to the single
// simulator (tests/test_par_shards.cpp); this family tracks the
// overhead/scaling of the window machinery itself. Arg is the torus side
// (side² clusters, 4·side² nodes).
void ShardedTorusThroughput(benchmark::State& state, int shards) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const int side = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    par::ShardedFtGcsSystem::Config config;
    config.params = params;
    config.seed = 15;
    config.shards = shards;
    auto system = std::make_unique<par::ShardedFtGcsSystem>(
        net::Graph::torus(side, side), std::move(config));
    system->start();
    state.ResumeTiming();
    system->run_until(5.0 * params.T);
    events += system->fired_events();
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
void BM_ShardedTorusThroughput2(benchmark::State& state) {
  ShardedTorusThroughput(state, 2);
}
BENCHMARK(BM_ShardedTorusThroughput2)->Arg(8)->Arg(16);
void BM_ShardedTorusThroughput4(benchmark::State& state) {
  ShardedTorusThroughput(state, 4);
}
BENCHMARK(BM_ShardedTorusThroughput4)->Arg(8)->Arg(16);
void BM_ShardedTorusThroughput8(benchmark::State& state) {
  ShardedTorusThroughput(state, 8);
}
BENCHMARK(BM_ShardedTorusThroughput8)->Arg(16);

void BM_TriggerEvaluation(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<double> neighbors(state.range(0));
  for (auto& est : neighbors) est = rng.uniform(-50.0, 50.0);
  const core::TriggerView view{0.0, neighbors};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fast_trigger(view, 3.0, 1.0));
    benchmark::DoNotOptimize(core::slow_trigger(view, 3.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriggerEvaluation)->Arg(2)->Arg(8)->Arg(32);

void BM_SingleClusterRound(benchmark::State& state) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  for (auto _ : state) {
    state.PauseTiming();
    core::FtGcsSystem::Config config;
    config.params = params;
    config.seed = 4;
    core::FtGcsSystem system(net::Graph::line(1), std::move(config));
    system.start();
    state.ResumeTiming();
    system.run_until(10.0 * params.T);
    benchmark::DoNotOptimize(system.simulator().fired_events());
  }
  state.SetItemsProcessed(state.iterations() * 10);  // rounds
}
BENCHMARK(BM_SingleClusterRound);

void BM_SystemEventThroughputLadder(benchmark::State& state) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const int clusters = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::FtGcsSystem::Config config;
    config.params = params;
    config.seed = 5;
    auto system = std::make_unique<core::FtGcsSystem>(
        net::Graph::line(clusters), std::move(config));
    system->start();
    state.ResumeTiming();
    system->run_until(5.0 * params.T);
    events += system->simulator().fired_events();
    state.PauseTiming();
    system.reset();  // teardown excluded, as in the torus family
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemEventThroughputLadder)->Arg(4)->Arg(16);

// ---- trace / monitor kernels ------------------------------------------------

// Per-delivery trace capture: the full hot path a traced run pays — sink
// batch append into the shard buffer, then the quiesced-commit merge
// (canonical sort) and varint frame encode. Writing to /dev/null keeps the
// kernel bounded while still paying the fwrite syscalls at frame flushes.
// Items are deliveries/second; this is the number to hold against the
// ~1 branch/delivery cost of tracing OFF.
void BM_TraceSinkDelivery(benchmark::State& state) {
  trace::TraceCollector collector("/dev/null");
  trace::TraceSink* sink = collector.shard_sink(0);
  sim::Rng rng(21);
  std::vector<sim::BatchedEvent> batch(1024);
  double now = 0.0;
  for (auto& event : batch) {
    now += 0.001 * rng.next_double();
    event.at = now;
    event.payload.a = static_cast<std::int32_t>(rng.below(40000));
    event.payload.c = static_cast<std::int32_t>(rng.below(40000));
    event.payload.b = static_cast<std::int32_t>(rng.below(8));
    event.payload.d = static_cast<std::uint32_t>(rng.below(4));
    event.payload.x = rng.next_double();
  }
  for (auto _ : state) {
    sink->on_delivery_batch(batch.data(), batch.size());
    collector.commit();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.counters["deliveries"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 1024),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSinkDelivery);

// Pure encode throughput of the on-disk format (varint + zigzag + XOR
// time-delta), no sink or merge in the loop — the floor BM_TraceSinkDelivery
// sits on.
void BM_TraceSinkEncode(benchmark::State& state) {
  trace::TraceWriter writer("/dev/null");
  sim::Rng rng(22);
  std::vector<trace::Record> records(1024);
  double now = 0.0;
  for (auto& record : records) {
    now += 0.001 * rng.next_double();
    record.at = now;
    record.sender = static_cast<std::int32_t>(rng.below(40000));
    record.dest = static_cast<std::int32_t>(rng.below(40000));
    record.kind = static_cast<std::uint8_t>(rng.below(4));
    record.level = trace::kind_has_level(record.kind)
                       ? static_cast<std::int32_t>(rng.below(8))
                       : 0;
    record.value =
        trace::kind_has_value(record.kind) ? rng.next_double() : 0.0;
  }
  for (auto _ : state) {
    for (const trace::Record& record : records) writer.append(record);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TraceSinkEncode);

// One monitor probe (the always-on cost): the cluster-extreme reduction
// (one pass over the node columns, then O(E_cluster) over the bundles)
// over a real mid-run snapshot. Arg is the torus side (side² clusters,
// 4·side² nodes); items are node-column reads per second.
void BM_MonitorStep(benchmark::State& state) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const int side = static_cast<int>(state.range(0));
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 23;
  core::FtGcsSystem system(net::Graph::torus(side, side), std::move(config));
  system.start();
  system.run_until(2.0 * params.T);
  core::SystemColumns columns;
  system.snapshot_columns(columns);

  const net::UniformDelay delays(params.d, params.U);
  trace::MonitorBounds bounds;
  bounds.local_skew = 1e9;
  bounds.global_skew = 1e9;
  bounds.intra_cluster = 1e9;
  trace::InvariantMonitor monitor(
      exp::build_topology_graph(system.topology(), delays), bounds);
  trace::MonitorCursor cursor;
  for (auto _ : state) {
    monitor.observe(columns, cursor);
  }
  benchmark::DoNotOptimize(monitor.stats().max_local_skew);
  state.SetItemsProcessed(state.iterations() * columns.num_nodes());
}
BENCHMARK(BM_MonitorStep)->Arg(8)->Arg(16);

// Histogram fill kernel: LogLinearHistogram::record over a precomputed
// skew-shaped value stream (an O(1) closed-form bucket guess with an
// exact fix-up against the fixed boundary table + two scalar updates).
// This is the inner loop of the probe sampler's per-value fallback for
// spans that straddle a bucket boundary; items are records/second.
void BM_HistogramRecord(benchmark::State& state) {
  obs::LogLinearHistogram hist(obs::ProbeSampler::scaled_spec(1.0));
  // Values spanning the linear section, the geometric tail, and the
  // overflow bucket, in a fixed pseudo-random order.
  std::vector<double> values(4096);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (double& v : values) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    v = static_cast<double>(x % 100000) * 1e-3;  // [0, 100)
  }
  for (auto _ : state) {
    for (const double v : values) hist.record(v);
    benchmark::DoNotOptimize(hist.percentile(0.99));
    hist.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_HistogramRecord);

// Full probe-boundary sampling kernel: ProbeSampler::sample over a real
// torus system's columnar snapshot — the cluster-extreme reduction, the
// histogram refill (one span per clique, bundle and cluster), gauge/counter
// updates, row serialization, and the fwrite — i.e. the per-probe cost
// `--metrics` adds to a run. The sink is /dev/null so the kernel measures
// the sampler, not the disk. Items are nodes/second (compare against
// BM_MonitorStep, the other per-probe pass); `split_frac` is the share of
// local spans that straddled a bucket boundary and were recorded pair by
// pair.
void metrics_sample_kernel(benchmark::State& state, bool straddle) {
  const core::Params params = core::Params::practical(1e-3, 1.0, 0.01, 1);
  const int side = static_cast<int>(state.range(0));
  core::FtGcsSystem::Config config;
  config.params = params;
  config.seed = 29;
  core::FtGcsSystem system(net::Graph::torus(side, side), std::move(config));
  system.start();
  system.run_until(2.0 * params.T);
  core::SystemColumns columns;
  system.snapshot_columns(columns);
  const net::UniformDelay delays(params.d, params.U);
  const metrics::SkewSample skews =
      metrics::measure_skews(columns, system.topology());

  obs::ProbeSampler::Config sampler_config;
  sampler_config.path = "/dev/null";
  sampler_config.monitors = false;
  // The run's own scale is the one exp::run_point picks for this clean
  // torus, max(intra-cluster bound, global-skew band): every span of the
  // snapshot then fits one bucket. The straddle scale puts the bucket
  // width far below the snapshot's skews instead.
  sampler_config.hist_scale =
      straddle ? 1e-4
               : std::max(params.intra_cluster_skew_bound(),
                          params.predicted_global_skew(
                              system.topology().cluster_graph().diameter()));
  obs::ProbeSampler sampler(
      sampler_config, exp::build_topology_graph(system.topology(), delays));
  sampler.prewarm();

  obs::SampleContext ctx;
  ctx.skews = &skews;
  ctx.columns = &columns;
  double t = columns.at;
  for (auto _ : state) {
    t += 1.0;
    ctx.at = t;
    ctx.events += 17;
    ctx.messages += 11;
    sampler.sample(ctx);
  }
  benchmark::DoNotOptimize(sampler.bytes());
  const obs::ProbeSampler::FillStats& fill = sampler.fill_stats();
  state.counters["split_frac"] =
      fill.local_spans == 0 ? 0.0
                            : static_cast<double>(fill.local_split) /
                                  static_cast<double>(fill.local_spans);
  state.SetItemsProcessed(state.iterations() * columns.num_nodes());
}

// The run's own regime: the O(1) span path (split_frac 0).
void BM_MetricsSample(benchmark::State& state) {
  metrics_sample_kernel(state, /*straddle=*/false);
}
BENCHMARK(BM_MetricsSample)->Arg(8)->Arg(16);

// The fallback regime: nearly every span straddles a bucket boundary and
// is recorded pair by pair (split_frac ≈ 1).
void BM_MetricsSampleStraddle(benchmark::State& state) {
  metrics_sample_kernel(state, /*straddle=*/true);
}
BENCHMARK(BM_MetricsSampleStraddle)->Arg(16);

// ---- main: refuse debug-library JSON ---------------------------------------

/// Extracts the value of --benchmark_out=<path> (or "--benchmark_out
/// <path>") before google-benchmark consumes argv.
std::string benchmark_out_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--benchmark_out=", 16) == 0) return arg + 16;
    if (std::strcmp(arg, "--benchmark_out") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return {};
}

/// True if the written benchmark output admits it was produced by a
/// debug-built benchmark library.
bool reports_debug_library(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, file)) > 0) {
    content.append(buf, n);
  }
  std::fclose(file);
  return content.find("\"library_build_type\": \"debug\"") !=
         std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = benchmark_out_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!out_path.empty() && reports_debug_library(out_path)) {
    std::remove(out_path.c_str());
    std::fprintf(
        stderr,
        "micro_kernel: refusing to publish %s — the benchmark library was "
        "built without NDEBUG (context.library_build_type == \"debug\"), so "
        "these numbers must not become a committed baseline. Rebuild the "
        "dependency in Release (-DFTGCS_BENCHMARK_SOURCE_DIR=<src> or "
        "-DFTGCS_BUNDLED_BENCHMARK=ON).\n",
        out_path.c_str());
    return 1;
  }
  return 0;
}
