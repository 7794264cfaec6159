#!/usr/bin/env bash
# Prints the deterministic section of the `ftgcs_bench --timing` footer
# (queue tiers, shard cut, monitor maxima, outputs) for a fixed set of
# runs, one block per run. BENCH_counters.txt at the repo root is this
# script's output; CI regenerates it and diffs it exactly, so a change
# that moves any counter must regenerate the file and explain the delta:
#
#   scripts/bench_counters.sh build/ftgcs_bench > BENCH_counters.txt
#
# Queue tiers depend on the shard count, so every block names its own.
set -euo pipefail

bench=${1:-build/ftgcs_bench}

counters() {
  echo "## $*"
  "$bench" "$@" --timing |
    awk '/^\[wall-clock\]$/ { on = 0 } on { print } /^\[deterministic\]$/ { on = 1 }'
}

counters sweep large_torus --axis clusters=64 --shards 1
counters sweep large_torus --axis clusters=64 --shards 2
counters sweep large_torus --axis clusters=64 --axis fault_mode=1 --shards 1
counters sweep large_ring --axis clusters=64 --shards 1
counters run e1_gradient_scale --shards 1
counters run e6_split_drift_containment --shards 1
