#!/usr/bin/env bash
# scripts/bench_pair.sh — alternating parent/change pairs of one benchmark
# workload, or of every workload: the protocol a performance claim in this
# repo is judged by.
#
#   make bench-pair REF=<commit> [W=paper-1024|all] [N=10] [SEED=42]
#   scripts/bench_pair.sh <ref> [workload|all] [pairs] [seed]
#
# The parent is <ref>, exported with `git archive` into a temporary
# directory (under $TMPDIR, removed on exit); the change is this checkout's
# working tree. Each side's atacbench is built once by its own
# bench/run.sh, then N pairs of the driver's one-process form
# (--workload W --seed SEED --seconds 20 --trace 0) run one after the other,
# alternating which side goes first. Prints, per side, the median and
# quartiles of op_s / op_cpu_s / setup_s / peak_rss_mb, in how many pairs
# the change read lower on each, and whether sim_cycles / sim_edp_js /
# sim_flits / failed agree. Exits non-zero when they do not agree, or when the change's
# median op_s is worse than the parent's by more than the distance between
# the parent's quartiles. W=all runs that protocol, with the same N and
# seed, for each workload the change's `atacbench -list` names, prints one
# table per workload, and exits non-zero if any workload fails either
# check. Nothing under bench/ is touched.
set -euo pipefail

ref="${1:?usage: scripts/bench_pair.sh <ref> [workload|all] [pairs] [seed]}"
w="${2:-paper-1024}"
n="${3:-10}"
seed="${4:-42}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
echo "bench-pair: building parent ($(git -C "$root" rev-parse --short "$ref")) and change" >&2
bash "$tmp/parent/bench/run.sh" -list >/dev/null
bash "$root/bench/run.sh" -list >/dev/null

# run W SIDE DIR I: one process; a failing run still leaves its output
# behind and is caught by the agreement check on "failed".
run() {
  "$3/.bench_build/atacbench" --workload "$1" --seed "$seed" --seconds 20 --trace 0 \
    >"$tmp/$1/$2-$4.txt" 2>/dev/null || true
}

# pair W: N alternating pairs of workload W, then its table; the status is
# the table's verdict.
pair() {
  mkdir "$tmp/$1"
  for i in $(seq 1 "$n"); do
    if [ $((i % 2)) = 1 ]; then
      run "$1" parent "$tmp/parent" "$i"; run "$1" change "$root" "$i"
    else
      run "$1" change "$root" "$i"; run "$1" parent "$tmp/parent" "$i"
    fi
    echo "bench-pair: $1 pair $i/$n: parent $(awk '$1 ~ /\/op_s$/ {print $2}' "$tmp/$1/parent-$i.txt") s," \
      "change $(awk '$1 ~ /\/op_s$/ {print $2}' "$tmp/$1/change-$i.txt") s" >&2
  done
  awk -v n="$n" -v w="$1" -v seed="$seed" '
function quantile(side, m, q,    i, j, a, cnt, t, pos, lo) {
  cnt = 0
  for (i = 1; i <= n; i++) if ((side, m, i) in x) a[++cnt] = x[side, m, i] + 0
  if (cnt == 0) return 0
  for (i = 2; i <= cnt; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
  pos = 1 + (cnt - 1) * q; lo = int(pos)
  return lo >= cnt ? a[cnt] : a[lo] + (pos - lo) * (a[lo+1] - a[lo])
}
{
  f = FILENAME; sub(/.*\//, "", f); sub(/\.txt$/, "", f)
  side = f; sub(/-[0-9]+$/, "", side); i = f; sub(/.*-/, "", i)
}
/^\{/ { if (match($0, /"failed":[0-9]+/)) x[side, "failed", i] = substr($0, RSTART + 9, RLENGTH - 9); next }
{ m = $1; sub(/.*\//, "", m); x[side, m, i] = $2 } # as printed: the sim_* check compares digits
END {
  printf "%s seed %d, %d pairs (median [q1 .. q3])\n", w, seed, n
  split("op_s op_cpu_s setup_s peak_rss_mb", ms, " ")
  for (k = 1; k <= 4; k++) {
    m = ms[k]; lower = 0
    for (i = 1; i <= n; i++) if (x["change", m, i] + 0 < x["parent", m, i] + 0) lower++
    printf "  %-12s parent %.4g [%.4g .. %.4g]   change %.4g [%.4g .. %.4g]   %+.1f %%, lower in %d of %d\n", m,
      quantile("parent", m, .5), quantile("parent", m, .25), quantile("parent", m, .75),
      quantile("change", m, .5), quantile("change", m, .25), quantile("change", m, .75),
      100 * (quantile("change", m, .5) / quantile("parent", m, .5) - 1), lower, n
  }
  wins = 0; losses = 0
  for (i = 1; i <= n; i++) {
    d = x["change", "op_s", i] - x["parent", "op_s", i]
    if (d < 0) wins++; else if (d > 0) losses++
  }
  printf "  op_s: change wins %d of %d pairs, loses %d\n", wins, n, losses
  bad = 0
  split("sim_cycles sim_edp_js sim_flits failed", es, " ")
  for (k = 1; k <= 4; k++) {
    m = es[k]; same = 1
    for (i = 1; i <= n; i++)
      if (!(("parent", m, i) in x) || x["parent", m, i] "" != x["change", m, i] "" || x["parent", m, i] "" != x["parent", m, 1] "") same = 0
    printf "  %-12s %s (%s)\n", m, same ? "equal" : "DIFFERS", x["parent", m, 1]
    if (!same) bad = 1
  }
  if (x["parent", "failed", 1] "" != "0") { print "  failed ops on the parent: not a valid comparison"; bad = 1 }
  iqr = quantile("parent", "op_s", .75) - quantile("parent", "op_s", .25)
  if (quantile("change", "op_s", .5) > quantile("parent", "op_s", .5) + iqr) {
    printf "  op_s: change median is worse by more than the parent inter-quartile spread (%.4g s)\n", iqr
    bad = 1
  }
  exit bad
}' "$tmp/$1"/parent-*.txt "$tmp/$1"/change-*.txt
}

workloads="$w"
if [ "$w" = all ]; then
  workloads="$("$root/.bench_build/atacbench" -list)"
fi
status=0
for wl in $workloads; do
  pair "$wl" || status=1
done
exit "$status"
