// perfbench: one benchmark process per call.
//
//   perfbench run   --workload W --seed N [--scale full|tiny] --out-dir DIR
//       One untraced library call (exp::run_point, or exp::SweepRunner::run
//       for a sweep workload): wall, CPU, events, peak RSS, fingerprints.
//   perfbench setup --workload W --seed N [--scale full|tiny] --out-dir DIR
//       Set-up only: resolve, topology, system construction and start(),
//       through the same public calls; seconds until the system started.
//   perfbench trace --workload W --seed N [--scale full|tiny] --out-dir DIR
//                   --spans FILE
//       Traced replay with spans around every layer call; per-layer
//       metrics and the replay's fingerprints. Spans go to FILE at the end.
//
// Each prints one JSON object on stdout. run.py aggregates the processes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sinks.h"
#include "exp/sweep.h"
#include "replay.h"
#include "workloads.h"

namespace {

namespace fx = ftgcs::exp;
using perfbench::Fingerprint;
using perfbench::LayerCounts;
using perfbench::Tracer;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries the parent's high-water mark across exec.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) throw std::runtime_error("no /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib * 1024.0 / 1e6;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

/// Non-finite values print as NaN (accepted by Python's json module), so
/// run.py can flag them.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "NaN";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_fingerprint(const Fingerprint& fp) {
  std::ostringstream os;
  os << "{\"events\":" << json_number(fp.events)
     << ",\"messages\":" << json_number(fp.messages)
     << ",\"max_local\":" << json_number(fp.max_local)
     << ",\"max_global\":" << json_number(fp.max_global)
     << ",\"max_intra\":" << json_number(fp.max_intra)
     << ",\"violations\":" << json_number(fp.violations)
     << ",\"monitor_violations\":" << json_number(fp.monitor_violations)
     << ",\"in_local_bound\":" << (fp.in_local_bound ? "true" : "false")
     << ",\"in_intra_bound\":" << (fp.in_intra_bound ? "true" : "false")
     << "}";
  return os.str();
}

std::string json_fingerprints(const std::vector<Fingerprint>& fps) {
  std::string out = "[";
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (i > 0) out += ",";
    out += json_fingerprint(fps[i]);
  }
  return out + "]";
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  perfbench::Scale scale = perfbench::Scale::kFull;
  std::string out_dir = ".";
  std::string spans;
};

Args parse(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: perfbench run|setup|trace ...");
  }
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--scale must be full or tiny");
      }
      args.scale = value == "full" ? perfbench::Scale::kFull
                                   : perfbench::Scale::kTiny;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown argument: " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  return args;
}

// ---- run: the untraced library call ----------------------------------------

int cmd_run(const perfbench::Workload& w) {
  std::vector<Fingerprint> fps;
  std::string table;
  double events = 0.0;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  if (w.sweep) {
    const fx::SweepResult sweep =
        fx::SweepRunner({.threads = w.sweep_threads}).run(w.spec);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    for (const fx::RunResult& row : sweep.rows) {
      fps.push_back(perfbench::fingerprint_of(row));
    }
    events = sweep.total_events;
    std::ostringstream os;
    fx::TableSink().write(sweep, os);
    table = os.str();
    std::printf("{\"wall_s\":%s,\"cpu_s\":%s,", json_number(wall).c_str(),
                json_number(cpu).c_str());
  } else {
    const fx::RunResult result = fx::run_point(w.spec, w.spec.seeds.front());
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    fps.push_back(perfbench::fingerprint_of(result));
    events = result.metric("events");
    std::printf("{\"wall_s\":%s,\"cpu_s\":%s,", json_number(wall).c_str(),
                json_number(cpu).c_str());
  }
  std::printf("\"events\":%s,\"peak_rss_mb\":%s,\"fingerprints\":%s,"
              "\"table\":%s}\n",
              json_number(events).c_str(), json_number(peak_rss_mb()).c_str(),
              json_fingerprints(fps).c_str(), json_string(table).c_str());
  return 0;
}

// ---- setup: until the system has started -----------------------------------

int cmd_setup(const perfbench::Workload& w) {
  Tracer off(false);
  LayerCounts counts;
  const std::vector<perfbench::Task> tasks = perfbench::expand_tasks(w.spec);
  double total = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const bool last = i + 1 == tasks.size();
    perfbench::ReplayOptions options;
    options.setup_only = true;
    const Clock::time_point t0 = Clock::now();
    options.on_started = [&] {
      total += seconds_since(t0);
      if (last) {
        // Report and leave without tearing the started system down.
        std::printf("{\"setup_s\":%s,\"tasks\":%zu}\n",
                    json_number(total).c_str(), tasks.size());
        std::fflush(stdout);
        std::_Exit(0);
      }
    };
    perfbench::replay_run(tasks[i].spec, tasks[i].seed, off, counts, options);
  }
  return 1;  // unreachable: the last task exits from on_started
}

// ---- trace: per-layer metrics ----------------------------------------------

struct Dist {
  double p50 = 0.0;
  double tail = 0.0;
  double n = 0.0;
  double total = 0.0;
};

/// p50 plus the highest of p99.9/p99/p95/p90/p75 that leaves at least ten
/// samples beyond it; below 40 samples the tail is the max. Which
/// percentile the tail is follows from n alone.
Dist dist_of(std::vector<double> v) {
  Dist d;
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto quantile = [&](double q) {
    const std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    return v[std::max<std::size_t>(rank, 1) - 1];
  };
  d.n = n;
  for (double x : v) d.total += x;
  d.p50 = quantile(0.5);
  d.tail = v.back();
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - pct / 100.0) >= 10.0) {
      d.tail = quantile(pct / 100.0);
      break;
    }
  }
  return d;
}

class MetricWriter {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!body_.empty()) body_ += ",";
    body_ += json_string(name) + ":[" + json_number(value) + "," +
             json_string(unit) + "]";
  }
  void add_dist(const std::string& prefix, const Dist& d) {
    add(prefix + ".p50", d.p50, "ms");
    add(prefix + ".tail", d.tail, "ms");
    add(prefix + ".n", d.n, "count");
    add(prefix + ".total", d.total, "ms");
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int cmd_trace(const perfbench::Workload& w, const Args& args) {
  // Sweep workloads first run the real pool with per-task timing on: the
  // exp.* figures describe exp::SweepRunner itself.
  Dist task_ms;
  double tail_ratio = 0.0;
  double pool_busy = 0.0;
  std::string untraced_s = "null";  // single runs: run.py pairs the wall
  if (w.sweep) {
    const Clock::time_point t0 = Clock::now();
    const fx::SweepResult sweep =
        fx::SweepRunner({.threads = w.sweep_threads, .timing = true})
            .run(w.spec);
    const double wall_ms = 1e3 * seconds_since(t0);
    std::vector<double> walls;
    for (const auto& row : sweep.timing) walls.push_back(row.wall_ms);
    task_ms = dist_of(walls);
    const double mean = task_ms.total / std::max(1.0, task_ms.n);
    tail_ratio = ratio(*std::max_element(walls.begin(), walls.end()), mean);
    const int threads = std::min<int>(w.sweep_threads,
                                      static_cast<int>(walls.size()));
    pool_busy = ratio(sweep.total_wall_ms, threads * wall_ms);
    untraced_s = json_number(sweep.total_wall_ms / 1e3);  // Σ task walls
  }

  Tracer tracer(true);
  LayerCounts counts;
  std::vector<Fingerprint> fps;
  perfbench::ReplayOptions options;
  options.par_profile_path = args.out_dir + "/" + w.name + ".par.profile";
  const Clock::time_point t0 = Clock::now();
  for (const perfbench::Task& task : perfbench::expand_tasks(w.spec)) {
    tracer.span("exp.task", [&] {
      fps.push_back(perfbench::replay_run(task.spec, task.seed, tracer,
                                          counts, options));
    });
  }
  const double traced_s = seconds_since(t0);
  if (!args.spans.empty()) tracer.write_jsonl(args.spans);

  const double run_ms = tracer.total_ms("sim.run");
  const Dist snapshot = dist_of(tracer.durations_ms("core.snapshot"));
  const Dist skews = dist_of(tracer.durations_ms("metrics.skews"));
  const Dist monitor = dist_of(tracer.durations_ms("trace.monitor"));
  const Dist sample = dist_of(tracer.durations_ms("obs.sample"));
  const double probe_ms =
      snapshot.total + skews.total + monitor.total + sample.total;

  MetricWriter m;
  m.add("exp.resolve_ms", tracer.total_ms("exp.resolve"), "ms");
  m.add("exp.task_ms.p50", task_ms.p50, "ms");
  m.add("exp.task_ms.tail", task_ms.tail, "ms");
  m.add("exp.task_ms.n", task_ms.n, "count");
  m.add("exp.tail_ratio", tail_ratio, "ratio");
  m.add("exp.pool_busy_frac", pool_busy, "frac");
  m.add("net.topology_ms", tracer.total_ms("net.topology"), "ms");
  m.add("net.messages_sent", counts.messages_sent, "count");
  m.add("net.messages_delivered", counts.messages_delivered, "count");
  m.add("net.mean_fanout", ratio(counts.fanout_sum, counts.fanout_nodes),
        "count");
  m.add("core.build_ms", tracer.total_ms("core.build"), "ms");
  m.add("core.start_ms", tracer.total_ms("core.start"), "ms");
  m.add_dist("core.snapshot_ms", snapshot);
  m.add("core.violations", counts.violations, "count");
  m.add("sim.run_ms", run_ms, "ms");
  m.add("sim.ns_per_event", ratio(run_ms * 1e6, counts.events_fired), "ns");
  m.add("sim.events_fired", counts.events_fired, "count");
  m.add("sim.events_scheduled", counts.events_scheduled, "count");
  m.add("sim.unordered_frac",
        ratio(counts.unordered_events, counts.events_fired), "frac");
  m.add("sim.ordered_run_frac",
        ratio(counts.ordered_run_events, counts.events_fired), "frac");
  m.add("sim.narrow_frac",
        ratio(counts.narrow_events, counts.events_scheduled), "frac");
  m.add("sim.bytes_per_event",
        ratio(counts.entry_bytes, counts.events_scheduled), "B");
  m.add("sim.reseeds", counts.reseeds, "count");
  m.add("sim.rung_spawns", counts.rung_spawns, "count");
  m.add("sim.overflow_pushes", counts.overflow_pushes, "count");
  m.add("sim.overflow_peak", counts.overflow_peak, "count");
  m.add("par.plan_ms", tracer.total_ms("par.plan"), "ms");
  m.add("par.windows", counts.par_windows, "count");
  m.add("par.merge_ms", counts.par_merge_ms, "ms");
  m.add("par.run_ms", counts.par_run_ms, "ms");
  m.add("par.wait_ms", counts.par_wait_ms, "ms");
  m.add("par.imbalance", counts.par_imbalance, "ratio");
  m.add("par.cut_edges", counts.par_cut_edges, "count");
  m.add("par.mailbox_peak", counts.par_mailbox_peak, "count");
  m.add("par.routed", counts.par_routed, "count");
  m.add_dist("metrics.skews_ms", skews);
  m.add_dist("trace.monitor_ms", monitor);
  m.add_dist("obs.sample_ms", sample);
  m.add("obs.series_bytes", counts.series_bytes, "B");
  m.add("byz.faulty_nodes", counts.faulty_nodes, "count");
  m.add("bench.probe_frac", ratio(probe_ms, 1e3 * traced_s), "frac");
  m.add("bench.run_frac", ratio(run_ms, 1e3 * traced_s), "frac");

  std::printf("{\"traced_s\":%s,\"untraced_s\":%s,\"fingerprints\":%s,"
              "\"metrics\":%s}\n",
              json_number(traced_s).c_str(), untraced_s.c_str(),
              json_fingerprints(fps).c_str(), m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const perfbench::Workload w = perfbench::make_workload(
        args.workload, args.seed, args.scale, args.out_dir);
    if (args.mode == "run") return cmd_run(w);
    if (args.mode == "setup") return cmd_setup(w);
    if (args.mode == "trace") return cmd_trace(w, args);
    std::fprintf(stderr, "unknown mode: %s\n", args.mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
