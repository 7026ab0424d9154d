#!/usr/bin/env bash
# bench/run.sh — the one command of the benchmark.
#
#   bench/run.sh                  build once, run all six workloads untraced
#   bench/run.sh -trace           the traced set (per-layer metrics, traces, layer-cost table)
#   bench/run.sh -seed 7          another workload seed (default 42)
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                 one workload, one process: the form BENCHMARK.json's
#                                 command is run in; the last stdout line is the JSON result
#
# Every metric is printed as "workload/metric value unit". The exit code is
# non-zero when an op or a correctness check failed or a declared metric is
# missing. The program is built from source into .bench_build/ at the root of
# the checkout (with its own GOCACHE there, so nothing outside the checkout is
# written); traces, profiles and scratch data go to bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
unset GOFLAGS
(cd "$here" && go build -o "$build/atacbench" .)
bin="$build/atacbench"

single=0
for a in "$@"; do
  case "$a" in -workload|--workload|-workload=*|--workload=*|-aa-report|--aa-report|-list|--list) single=1 ;; esac
done
if [ "$single" = 1 ]; then
  exec "$bin" "$@"
fi

trace=0
seed=42
while [ $# -gt 0 ]; do
  case "$1" in
    -trace|--trace) trace=1 ;;
    -seed|--seed) seed="$2"; shift ;;
    *) echo "usage: bench/run.sh [-trace] [-seed N] | --workload NAME --seed N --seconds S --trace 0|1" >&2; exit 2 ;;
  esac
  shift
done

status=0
for w in $("$bin" -list); do
  # One OS process per workload; the JSON result line is for the driver.
  if ! "$bin" -workload "$w" -seed "$seed" -trace "$trace" | grep -v '^{'; then
    status=1
  fi
done
exit "$status"
