#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ftgcs simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin NAME      # print the default-seed pin

Builds perfbench/ (and with it the library one directory up) in
$CARGO_TARGET_DIR or .bench_build, then runs the C++ benchmark binary in
fresh processes until --seconds have passed (at least MIN_REPS times):

  --trace 0  alternates `perfbench setup` and `perfbench run` processes and
             reports the end-to-end metrics (medians over the processes).
  --trace 1  alternates `perfbench run` and `perfbench trace` processes and
             reports the per-layer metrics (medians over the traced runs).

Every run is checked: paper-bound flags and zero monitor violations for any
seed, the pinned fingerprint (pins.json) for the default seed, identical
fingerprints across repeats, traced replay == untraced run, and identical
deterministic counts across traced repeats. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ["strict_pair", "torus40k_sharded", "torus4k_probed", "e1_sweep"]
DEFAULT_SEED = 1
# Workloads whose library call runs several threads (see Bench.call).
MULTI_THREADED = {"torus40k_sharded", "e1_sweep"}
MIN_REPS = 3        # untraced runs per benchmark run
MIN_TRACED_REPS = 2  # traced runs: enough for the exact-repeat check
DEADLINE_S = 170  # every process of a run ends by then (killed if need be)

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics that must repeat exactly across traced runs of a seed.
EXACT_COUNTS = [
    "sim.events_fired", "sim.events_scheduled", "sim.unordered_frac",
    "sim.ordered_run_frac", "sim.narrow_frac", "sim.bytes_per_event",
    "sim.reseeds", "sim.rung_spawns", "sim.overflow_pushes",
    "sim.overflow_peak", "net.messages_sent", "net.messages_delivered",
    "net.mean_fanout", "core.violations", "par.windows", "par.cut_edges",
    "par.mailbox_peak", "par.routed", "obs.series_bytes", "byz.faulty_nodes",
    "core.snapshot_ms.n", "metrics.skews_ms.n", "trace.monitor_ms.n",
    "obs.sample_ms.n",
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------


def work_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "run.h")):
        raise SystemExit(f"perfbench: no ftgcs sources under {ROOT}/src")
    bdir = os.path.join(work_dir(), "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(bdir, "perfbench")


# ---- one benchmark process ----------------------------------------------


class Bench:
    def __init__(self, binary, workload, seed, scale):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.out_dir = os.path.join(work_dir(), "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.calls = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.deadline = time.monotonic() + DEADLINE_S

    def save_samples(self, tag, samples):
        """Keeps every process's raw figures beside the spans."""
        path = os.path.join(self.out_dir, f"{self.workload}-seed{self.seed}"
                                          f"-{tag}.samples.json")
        with open(path, "w") as f:
            json.dump(samples, f)

    def call(self, mode, *extra):
        """Runs one benchmark process; returns its JSON result or None."""
        cmd = [self.binary, mode, "--workload", self.workload,
               "--seed", str(self.seed), "--scale", self.scale,
               "--out-dir", self.out_dir, *extra]
        # Single-threaded calls (set-up, and every call of a workload that
        # runs one thread) are pinned: rep i of a mode runs on allowed CPU
        # i mod n, so every benchmark run samples each CPU equally often.
        # On a shared host the CPUs differ in speed for minutes at a time.
        pin = None
        if mode == "setup" or self.workload not in MULTI_THREADED:
            reps = self.calls.get(mode, 0)
            self.calls[mode] = reps + 1
            cpu = self.cpus[reps % len(self.cpus)]
            pin = lambda: os.sched_setaffinity(0, {cpu})
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            log(f"{mode} not started: run deadline passed")
            return None
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=remaining, preexec_fn=pin)
        except subprocess.TimeoutExpired:
            log(f"{mode} timed out")
            return None
        if proc.returncode != 0:
            log(f"{mode} exited {proc.returncode}: {proc.stderr.strip()}")
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            log(f"{mode} printed no result")
            return None


# ---- correctness ---------------------------------------------------------


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def bound_failures(fingerprints):
    """Tasks that broke a paper-bound flag or saw a violation."""
    return sum(1 for fp in fingerprints
               if not (fp["in_local_bound"] and fp["in_intra_bound"]
                       and fp["violations"] == 0
                       and fp["monitor_violations"] == 0))


def pin_failures(result, pin):
    """Tasks whose fingerprint (or, for sweeps, the table) differs from pin."""
    fps = result["fingerprints"]
    if len(fps) != len(pin["fingerprints"]):
        return len(fps)
    if "table" in pin and result.get("table") != pin["table"]:
        return len(fps)
    return sum(1 for got, want in zip(fps, pin["fingerprints"]) if got != want)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, tasks, failed):
        self.attempted += tasks
        self.failed += min(failed, tasks)


def check_run(result, reference, pin, tally, tasks):
    """Counts one untraced run: process failure, bounds, repeat, pin."""
    if result is None:
        tally.add(tasks, tasks)
        return
    fps = result["fingerprints"]
    failed = bound_failures(fps)
    if reference is not None and (fps != reference["fingerprints"]
                                  or result["table"] != reference["table"]):
        log("fingerprint differs between repeats of one seed")
        failed = len(fps)
    if pin is not None:
        bad = pin_failures(result, pin)
        if bad:
            log(f"{bad} task(s) differ from the pinned fingerprint")
        failed = max(failed, bad)
    tally.add(len(fps), failed)


# ---- measurement loops ---------------------------------------------------


def median(values):
    return statistics.median(values)


def keep_going(bench, start, reps, min_reps, seconds, last_pair_s):
    """Another pair of processes starts while it would end no later than
    half a pair past the budget (so a run ends close to --seconds)."""
    now = time.monotonic()
    if now + last_pair_s > bench.deadline:
        return False
    return reps < min_reps or now - start + last_pair_s / 2 <= seconds


def measure_end_to_end(bench, seconds, pin, tasks):
    tally = Tally()
    runs, setups = [], []
    reference = None
    start = time.monotonic()
    last = 0.0
    while keep_going(bench, start, len(runs), MIN_REPS, seconds, last):
        t0 = time.monotonic()
        setup = bench.call("setup")
        if setup is None:
            tally.add(tasks, tasks)
        else:
            setups.append(setup["setup_s"])
        run = bench.call("run")
        check_run(run, reference, pin, tally, tasks)
        if run is not None:
            reference = reference or run
            runs.append(run)
        last = time.monotonic() - t0
    if not runs or not setups:
        raise SystemExit("perfbench: no successful run")
    bench.save_samples("trace0", {"setup_s": setups, "runs": [
        {k: r[k] for k in ("wall_s", "cpu_s", "events", "peak_rss_mb")}
        for r in runs]})
    metrics = {
        "events_per_s": median([r["events"] / r["wall_s"] for r in runs]),
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}


def measure_layers(bench, seconds, pin, tasks):
    tally = Tally()
    runs, traces = [], []
    reference = None
    start = time.monotonic()
    last = 0.0
    while keep_going(bench, start, len(traces), MIN_TRACED_REPS, seconds,
                     last):
        t0 = time.monotonic()
        run = bench.call("run")
        check_run(run, reference, pin, tally, tasks)
        if run is not None:
            reference = reference or run
            runs.append(run)
        spans = os.path.join(
            bench.out_dir,
            f"{bench.workload}-seed{bench.seed}-{len(traces)}.spans.jsonl")
        trace = bench.call("trace", "--spans", spans)
        if trace is None:
            tally.add(tasks, tasks)
        else:
            failed = bound_failures(trace["fingerprints"])
            if reference is not None and \
                    trace["fingerprints"] != reference["fingerprints"]:
                log("traced replay fingerprint differs from the untraced run")
                failed = len(trace["fingerprints"])
            if traces:
                first = traces[0]["metrics"]
                drift = [k for k in EXACT_COUNTS
                         if trace["metrics"].get(k) != first.get(k)]
                if drift:
                    log(f"counts differ between traced repeats: {drift}")
                    failed = len(trace["fingerprints"])
            tally.add(len(trace["fingerprints"]), failed)
            traces.append(trace)
        last = time.monotonic() - t0
    if not runs or not traces:
        raise SystemExit("perfbench: no successful traced run")
    metrics = {}
    for name, (_, unit) in traces[0]["metrics"].items():
        metrics[name] = {"value": median([t["metrics"][name][0]
                                          for t in traces]),
                         "unit": unit}
    # Tracing overhead: traced replay wall minus the untraced wall of the
    # same work (sweeps: the pool's serial-equivalent task time).
    traced = median([t["traced_s"] for t in traces])
    if traces[0]["untraced_s"] is not None:
        untraced = median([t["untraced_s"] for t in traces])
    else:
        untraced = median([r["wall_s"] for r in runs])
    metrics["bench.trace_overhead_s"] = {"value": traced - untraced,
                                         "unit": "s"}
    return tally, metrics


def benchmark(workload, seed, seconds, trace, scale="full"):
    binary = build()
    bench = Bench(binary, workload, seed, scale)
    pin = None
    if scale == "full" and seed == DEFAULT_SEED:
        pin = load_pins()[workload]
    tasks = len(pin["fingerprints"]) if pin else 1
    measure = measure_layers if trace else measure_end_to_end
    tally, metrics = measure(bench, seconds, pin, tasks)
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):  # perfbench prints NaN
            log(f"metric {name} is not finite")
            tally.failed = max(tally.failed, 1)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# ---- self-test -----------------------------------------------------------


def self_test():
    """Every workload at tiny size: every declared metric prints with its
    unit and a finite value, and a wrong pin is caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for workload in declared["workloads"]:
        name = workload["name"]
        found = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = benchmark(name, DEFAULT_SEED, 0, trace, scale="tiny")
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                found.append(f"trace={trace}: metrics {got} != {want}")
            if not result["correct"]:
                found.append(f"trace={trace}: {result['failed']} failed")
        # The true pin must pass and a wrong one must count as failed.
        run = Bench(build(), name, DEFAULT_SEED, "tiny").call("run")
        good = {"fingerprints": run["fingerprints"], "table": run["table"]}
        bad = json.loads(json.dumps(good))
        bad["fingerprints"][0]["events"] += 1
        tally = Tally()
        check_run(run, None, good, tally, 1)
        log("a pin mismatch is expected next")
        check_run(run, None, bad, tally, 1)
        if tally.failed != 1:
            found.append("a wrong pin was not caught")
        log(f"self-test {name}: " + ("; ".join(found) or "ok"))
        problems += [f"{name}: {p}" for p in found]
    return problems


# ---- main ----------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", choices=WORKLOADS,
                    help="print the default-seed pin of a workload")
    args = ap.parse_args()

    if args.self_test:
        problems = self_test()
        for p in problems:
            log(p)
        print(json.dumps({"self_test": "fail" if problems else "ok"}))
        return 1 if problems else 0
    if args.pin:
        run = Bench(build(), args.pin, DEFAULT_SEED, "full").call("run")
        if run is None:
            return 1
        pin = {"fingerprints": run["fingerprints"]}
        if run["table"]:
            pin["table"] = run["table"]
        print(json.dumps({args.pin: pin}, indent=1))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
