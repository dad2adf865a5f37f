#!/usr/bin/env bash
# Runs every workload on two checkouts, RUNS pairs each (seeds 1..RUNS),
# untraced, and appends one line per run to that side's file:
# {"workload":...,"seed":...,"result":<the run's last line>}. The two runs of
# a pair follow each other, and which side goes first alternates from seed to
# seed, so a slow spell of the machine falls on both sides alike. The two
# files are what benchmark/compare compares. Naming the same checkout twice
# gives the two sets of one commit that must agree.
#
#   bash benchmark/pairs.sh BASE_CHECKOUT CANDIDATE_CHECKOUT BASE_OUT CANDIDATE_OUT [RUNS=10]
#
# The run length is this checkout's run_seconds, the same on both sides.
set -euo pipefail
[ $# -ge 4 ] || { echo "usage: pairs.sh BASE_CHECKOUT CANDIDATE_CHECKOUT BASE_OUT CANDIDATE_OUT [RUNS]" >&2; exit 2; }
base=$(cd "$1" && pwd)
cand=$(cd "$2" && pwd)
base_out=$3
cand_out=$4
runs=${5:-10}
here=$(dirname "${BASH_SOURCE[0]}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")

one() { # checkout, output file, workload, seed
  local log
  log=$(bash "$1/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0)
  printf '%s\n' "$log" | sed '$d' >&2
  printf '{"workload":"%s","seed":%d,"result":%s}\n' "$3" "$4" "$(printf '%s\n' "$log" | tail -n 1)" >>"$2"
}

for seed in $(seq 1 "$runs"); do
  for workload in cold_boot wal_recover serve_hot serve_fullmap; do
    if ((seed % 2)); then
      one "$base" "$base_out" "$workload" "$seed"
      one "$cand" "$cand_out" "$workload" "$seed"
    else
      one "$cand" "$cand_out" "$workload" "$seed"
      one "$base" "$base_out" "$workload" "$seed"
    fi
  done
done
