#!/usr/bin/env bash
# bench/aa.sh — the A/A check: two interleaved sets ("a" and "b") of runs of
# the same build, every workload, untraced. Run i of both sets uses seed 41+i.
# Prints, per workload and end-to-end metric, the within-set spread (distance
# between the quartiles over the median, as the driver computes it) and the gap
# between the two sets' medians; fails when a gap or a spread exceeds the
# metric's bound (set-up time's spread is not judged).
#
#   bench/aa.sh            5 runs per set (about 20 minutes on the reference host)
#   AA_RUNS=10 bench/aa.sh
#
# Rule (README.md): a metric that fails here at its bound is moved to the
# per-layer table, with the reason recorded; bounds never exceed 0.25.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

runs="${AA_RUNS:-5}"
dir="bench/out/aa"
rm -rf "$dir"
mkdir -p "$dir"
workloads="$(bench/run.sh -list)"
for i in $(seq 1 "$runs"); do
  for set in a b; do
    for w in $workloads; do
      echo "aa: set $set run $i $w" >&2
      bench/run.sh --workload "$w" --seed $((41 + i)) --trace 0 2>/dev/null | tail -n 1 > "$dir/$set-$w-$i.json"
    done
  done
done
bench/run.sh -aa-report "$dir"
