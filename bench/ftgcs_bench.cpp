// ftgcs_bench — unified experiment CLI over the exp/ engine.
//
//   ftgcs_bench list                      show registered scenarios
//   ftgcs_bench run <scenario> [opts]     run a scenario's registered grid
//   ftgcs_bench sweep <scenario> [opts]   run with grid/seed overrides
//
// Options (run/sweep):
//   --threads N         worker threads (default: hardware concurrency)
//   --sink KIND         table | csv | jsonl        (default: table)
//   --seeds a,b,c       override the seed list
//   --axis name=v1,v2   override or append a sweep axis (repeatable;
//                       the strategy axis also accepts strategy names)
//   --worst             aggregate rows as worst-over-seeds
//   --per-seed          one row per (point, seed)
//   --timing            append wall_ms / events_per_sec columns (wall-clock
//                       measurements; off by default so output stays
//                       machine-independent) and a queue-tier footer
//                       (buckets / rung spawns / overflow peak)
//   --engine KIND       event-engine backend: heap | ladder (default:
//                       ladder; tables are bit-identical either way, so
//                       this is a pure A/B throughput toggle)
//   --shards T          conservative-parallel backend: stripe each run's
//                       cluster graph over T worker threads advancing in
//                       lock-step safe windows (default 1 = single
//                       simulator; tables are bit-identical at any T, so
//                       this too is a pure throughput toggle; the
//                       `--timing` footer reports the cut geometry)
//   --trace PATH        stream every fired pulse delivery to a binary .ftr
//                       trace (multi-task sweeps write PATH.taskN). The
//                       bytes are identical at every --shards/--engine
//                       choice; inspect with `ftgcs_trace`
//   --metrics PATH      write the deterministic per-probe metrics series
//                       (JSONL: skew max/p99/p50, envelope margins,
//                       violations) to PATH — byte-identical at every
//                       --shards/--engine choice — plus the PATH.profile
//                       sidecar (wall-clock shard phases + engine/shard-
//                       dependent queue diag; NOT deterministic).
//                       Multi-task sweeps write PATH.taskN; inspect with
//                       `ftgcs_report`
//   --no-monitors       disable the online invariant monitors (they are on
//                       by default; results go to the --timing footer)
//   --quiet             table only, no banner
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "byz/strategies.h"
#include "exp/exp.h"
#include "metrics/table.h"

namespace {

using namespace ftgcs;

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: ftgcs_bench <list | run <scenario> | sweep "
               "<scenario>> [--threads N] [--sink table|csv|jsonl] "
               "[--seeds a,b,c] [--axis name=v1,v2]... [--worst] "
               "[--per-seed] [--timing] [--engine heap|ladder] "
               "[--shards T] [--trace PATH] [--metrics PATH] "
               "[--no-monitors] [--quiet]\n");
  std::exit(code);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

/// Parses all of `text` as a T; an empty value, trailing characters
/// (`--shards 4x`) or an out-of-range value is an error naming the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    throw std::invalid_argument(flag + " expects a number, got '" + text +
                                "'");
  }
  return value;
}

/// Parses one `--axis name=v1,v2,...` token list into a SweepAxis. Strategy
/// axes accept strategy names as well as numeric enum values.
exp::SweepAxis parse_axis(const std::string& text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    throw std::invalid_argument("--axis expects name=v1,v2,... got '" +
                                text + "'");
  }
  exp::SweepAxis axis;
  axis.name = text.substr(0, eq);
  for (const std::string& token : split(text.substr(eq + 1), ',')) {
    if (token.empty()) continue;
    if (axis.name == "strategy") {
      bool matched = false;
      for (int s = 0; s <= static_cast<int>(byz::StrategyKind::kDelayJitter);
           ++s) {
        const auto kind = static_cast<byz::StrategyKind>(s);
        if (token == byz::strategy_name(kind)) {
          axis.values.push_back(
              exp::AxisValue::named(static_cast<double>(s), token));
          matched = true;
          break;
        }
      }
      if (matched) continue;
    }
    axis.values.push_back(exp::AxisValue::of(
        parse_number<double>("--axis " + axis.name, token)));
  }
  if (axis.values.empty()) {
    throw std::invalid_argument("--axis '" + axis.name + "' has no values");
  }
  return axis;
}

int cmd_list() {
  metrics::Table table({"scenario", "protocol", "topology", "points",
                        "seeds", "claim"});
  const exp::Registry& registry = exp::Registry::instance();
  for (const std::string& name : registry.names()) {
    const exp::ScenarioSpec* spec = registry.find(name);
    table.add_row({spec->name, exp::protocol_name(spec->protocol),
                   spec->topology.describe(),
                   metrics::Table::integer(
                       static_cast<long long>(spec->num_points())),
                   metrics::Table::integer(
                       static_cast<long long>(spec->seeds.size())),
                   spec->title});
  }
  table.print(std::cout);
  std::printf("\n%zu scenarios. `ftgcs_bench run <scenario>` executes one; "
              "`sweep` accepts --axis/--seeds overrides.\n",
              registry.size());
  return 0;
}

/// `run` executes the registered grid verbatim; `sweep` (allow_overrides)
/// additionally accepts --axis/--seeds/--worst/--per-seed.
int cmd_run(const std::vector<std::string>& args, bool allow_overrides) {
  if (args.empty()) usage(2);
  const std::string name = args[0];

  exp::ScenarioSpec spec;
  if (const exp::ScenarioSpec* found = exp::Registry::instance().find(name)) {
    spec = *found;
  } else {
    std::fprintf(stderr,
                 "ftgcs_bench: unknown scenario '%s' (see `ftgcs_bench "
                 "list`)\n",
                 name.c_str());
    return 2;
  }

  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  std::string sink_name = "table";
  bool quiet = false;
  bool timing = false;

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage(2);
      return args[++i];
    };
    if (!allow_overrides &&
        (arg == "--seeds" || arg == "--axis" || arg == "--worst" ||
         arg == "--per-seed")) {
      std::fprintf(stderr,
                   "ftgcs_bench: '%s' overrides the registered grid — use "
                   "`ftgcs_bench sweep %s %s ...`\n",
                   arg.c_str(), name.c_str(), arg.c_str());
      return 2;
    }
    if (arg == "--threads") {
      threads = parse_number<int>(arg, next());
    } else if (arg == "--sink") {
      sink_name = next();
    } else if (arg == "--seeds") {
      spec.seeds.clear();
      for (const std::string& token : split(next(), ',')) {
        if (!token.empty()) {
          spec.seeds.push_back(parse_number<std::uint64_t>(arg, token));
        }
      }
      if (spec.seeds.empty()) usage(2);
    } else if (arg == "--axis") {
      exp::SweepAxis axis = parse_axis(next());
      bool replaced = false;
      for (auto& existing : spec.axes) {
        if (existing.name == axis.name) {
          existing = axis;
          replaced = true;
          break;
        }
      }
      if (!replaced) spec.axes.push_back(std::move(axis));
    } else if (arg == "--worst") {
      spec.aggregation = exp::SeedAggregation::kWorstOverSeeds;
    } else if (arg == "--per-seed") {
      spec.aggregation = exp::SeedAggregation::kPerSeed;
    } else if (arg == "--engine") {
      spec.engine = exp::parse_queue_backend(next());
    } else if (arg == "--shards") {
      spec.shards = parse_number<int>(arg, next());
      if (spec.shards < 1) usage(2);
    } else if (arg == "--trace") {
      spec.trace_path = next();
      if (spec.trace_path.empty()) usage(2);
    } else if (arg == "--metrics") {
      spec.metrics_path = next();
      if (spec.metrics_path.empty()) usage(2);
    } else if (arg == "--no-monitors") {
      spec.monitors = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--timing") {
      timing = true;
    } else {
      std::fprintf(stderr, "ftgcs_bench: unknown option '%s'\n", arg.c_str());
      usage(2);
    }
  }

  if (!quiet) {
    std::printf("\n==========================================================\n");
    std::printf("%s — %s\n", spec.name.c_str(), spec.title.c_str());
    std::printf("==========================================================\n");
    std::printf("%s\n\n", spec.description.c_str());
  }

  const std::unique_ptr<exp::ResultSink> sink = exp::make_sink(sink_name);
  exp::SweepRunner runner({threads, timing});
  const exp::SweepResult result = runner.run(spec);
  sink->write(result, std::cout);
  if (!quiet) {
    std::printf("\n%zu rows (%zu tasks, %d threads)\n", result.rows.size(),
                spec.num_tasks(), threads);
    // The whole diagnostics block keys on --timing alone: the queue /
    // shards / monitor / trace lines are deterministic and must print on
    // EVERY timed footer — including the degenerate single-simulator
    // fallback of a zero-event or sub-millisecond run, which the old
    // wall>0 && events>0 guard silently swallowed while the sharded
    // footer printed them. Only the throughput line needs a nonzero wall.
    if (timing) {
      if (result.total_wall_ms > 0.0 && result.total_events > 0.0) {
        std::printf("%.3g simulated events in %.0f ms task time — %.2fM "
                    "events/sec/thread aggregate\n",
                    result.total_events, result.total_wall_ms,
                    result.total_events / result.total_wall_ms / 1000.0);
      }
      {
        // Ordering work per fired event: what the drain paid to restore
        // (time, seq) order (sorted) or to skip it (horizon-scanned).
        const double fired = result.total_events;
        std::printf("queue[%s]: buckets=%.0f rung_spawns=%.0f "
                    "overflow_peak=%.0f reseeds=%.0f rewindows=%.0f "
                    "sorts=%.0f sorted_entries=%.0f horizon_scanned=%.0f "
                    "sorted_per_event=%.2f scanned_per_event=%.2f\n",
                    sim::queue_backend_name(spec.engine),
                    result.queue.max_bucket_count, result.queue.rung_spawns,
                    result.queue.max_overflow_peak, result.queue.reseeds,
                    result.queue.rewindows, result.queue.sorts,
                    result.queue.sorted_entries, result.queue.horizon_scanned,
                    fired > 0.0 ? result.queue.sorted_entries / fired : 0.0,
                    fired > 0.0 ? result.queue.horizon_scanned / fired : 0.0);
      }
      std::printf("runs[%s]: part_runs=%.0f part_events=%.0f "
                  "run_events=%.0f\n",
                  sim::queue_backend_name(spec.engine),
                  result.queue.unordered_runs, result.queue.unordered_events,
                  result.queue.ordered_run_events);
      {
        // Entry-footprint split: 16 B narrow fire-only deliveries vs 32 B
        // wide entries, plus the 40 B group records that carry the narrow
        // fan-outs. mean_group = deliveries per coalesced broadcast.
        const double narrow = result.queue.narrow_events;
        const double wide = result.queue.wide_events;
        const double groups = result.queue.group_inserts;
        const double bytes = 16.0 * narrow + 32.0 * wide + 40.0 * groups;
        const double total = narrow + wide;
        std::printf("bytes[queue]: entry_bytes=%.0f narrow=%.0f wide=%.0f "
                    "groups=%.0f mean_group=%.1f bytes_per_event=%.1f\n",
                    bytes, narrow, wide, groups,
                    groups > 0.0 ? narrow / groups : 0.0,
                    total > 0.0 ? bytes / total : 0.0);
      }
      if (result.shard.shards > 0.0) {
        std::printf("shards[%.0f]: cut_edges=%.0f min_cut_delay=%g "
                    "windows=%.0f mailbox_peak=%.0f\n",
                    result.shard.shards, result.shard.max_cut_edges,
                    result.shard.min_cut_delay, result.shard.windows,
                    result.shard.max_mailbox_peak);
      } else if (spec.shards > 1) {
        std::printf("shards: requested %d, partition degenerate — ran the "
                    "single-simulator engine\n",
                    spec.shards);
      }
      // Monitor/trace status prints on EVERY --timing footer — including
      // the degenerate single-simulator fallback above — so "off" is
      // always an explicit statement, never an absence.
      if (result.monitor.rows > 0.0) {
        const exp::SweepResult::MonitorTotals& mon = result.monitor;
        std::printf("monitors[on]: probes=%.0f violations=%.0f "
                    "max_local=%.4g max_global=%.4g max_intra=%.4g",
                    mon.probes, mon.violations, mon.max_local_skew,
                    mon.max_global_skew, mon.max_intra);
        if (std::isfinite(mon.min_local_margin)) {
          std::printf(" local_margin=%.4g", mon.min_local_margin);
        }
        if (std::isfinite(mon.min_global_margin)) {
          std::printf(" global_margin=%.4g", mon.min_global_margin);
        }
        if (std::isfinite(mon.min_intra_margin)) {
          std::printf(" intra_margin=%.4g", mon.min_intra_margin);
        }
        std::printf("\n");
        if (mon.has_violation) {
          std::printf("monitors: FIRST VIOLATION %s value=%.6g bound=%.6g "
                      "at t=%.6g task=%zu events=%llu trace_offset=%llu\n",
                      mon.first.invariant, mon.first.value, mon.first.bound,
                      mon.first.cursor.at, mon.first_task,
                      static_cast<unsigned long long>(mon.first.cursor.events),
                      static_cast<unsigned long long>(
                          mon.first.cursor.trace_offset));
        }
      } else {
        std::printf("monitors=off\n");
      }
      if (result.trace.files > 0.0) {
        std::printf("trace[on]: files=%.0f records=%.0f bytes=%.0f (%s)\n",
                    result.trace.files, result.trace.records,
                    result.trace.bytes, spec.trace_path.c_str());
      } else {
        std::printf("trace=off\n");
      }
      if (result.series.files > 0.0) {
        std::printf("metrics[on]: files=%.0f probes=%.0f bytes=%.0f (%s)\n",
                    result.series.files, result.series.probes,
                    result.series.bytes, spec.metrics_path.c_str());
        // Phase-profiler summary (wall clock, nondeterministic — footer
        // only). Shard phase totals exist only for sharded tasks; the
        // imbalance ratio is the work-stealing baseline number.
        const exp::SweepResult::ProfileTotals& prof = result.profile;
        if (prof.shards > 0.0) {
          std::printf("phases[%.0f shards]: merge_ms=%.1f run_ms=%.1f "
                      "wait_ms=%.1f imbalance=%.3f\n",
                      prof.shards, prof.merge_ms, prof.run_ms, prof.wait_ms,
                      prof.max_imbalance);
        }
      } else {
        std::printf("metrics=off\n");
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exp::register_builtin_scenarios();
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(args, /*allow_overrides=*/false);
    if (command == "sweep") return cmd_run(args, /*allow_overrides=*/true);
    if (command == "--help" || command == "-h" || command == "help") {
      usage(0);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftgcs_bench: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "ftgcs_bench: unknown command '%s'\n",
               command.c_str());
  usage(2);
}
