#!/usr/bin/env bash
# End-to-end smoke test of the serving daemon (atacd + atacctl).
#
# Checks the contracts the serving layer promises:
#
#   1. a job submitted over the API produces exactly the result a direct
#      atacsim invocation of the same spec produces (cycles and retired
#      instructions match);
#   2. progress streams over SSE while the job runs, ending in a "done"
#      phase;
#   3. a resubmission of the identical spec coalesces: the /metrics
#      fresh-run counter stays at 1 and the result bodies are
#      byte-identical;
#   4. after a SIGTERM drain, a restarted daemon pointed at the same
#      cache serves the run from the persistent cache (fresh runs 0,
#      cache hits >= 1).
. "$(dirname "$0")/lib.sh"

cores=16
seed=42
addr=127.0.0.1:18473
base=http://$addr

smoke_setup atacd atacctl atacsim
start_daemon() { start_atacd "$addr" "$workdir/cache" "$workdir/atacd.log"; }
submit() { # submit <n> <stderr-file>: the radix job, waited for, into result<n>.json
    "$workdir/atacctl" -addr "$base" submit -bench radix -cores "$cores" -seed "$seed" -wait \
        >"$workdir/result$1.json" 2>"$2"
}
metric() { # metric <name>: its value on /metrics
    curl -fsS "$base/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

echo "== start daemon"
start_daemon
"$workdir/atacctl" -addr "$base" health
reference_run

echo "== submit via API, streaming progress"
submit 1 "$workdir/stream.log"
grep -q '^done' "$workdir/stream.log" || fail "no done event in SSE stream" "$workdir/stream.log"
grep -q '^epoch' "$workdir/stream.log" || fail "no live epoch progress in SSE stream" "$workdir/stream.log"
check_parity "$workdir/result1.json"

echo "== resubmit: must coalesce onto the cached run"
submit 2 /dev/null
cmp -s "$workdir/result1.json" "$workdir/result2.json" || fail "result bodies differ across submissions"
fresh=$(metric atacd_runner_fresh_runs_total)
[ "$fresh" = "1" ] || fail "fresh runs = $fresh after resubmit, want 1"

echo "== drain (SIGTERM) and restart against the same cache"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "daemon exited non-zero on drain"
grep -q "drained" "$workdir/atacd.log" || fail "no drain in daemon log" "$workdir/atacd.log"

start_daemon
submit 3 /dev/null
fresh=$(metric atacd_runner_fresh_runs_total)
hits=$(metric atacd_runner_cache_hits_total)
[ "$fresh" = "0" ] || fail "restarted daemon re-simulated (fresh=$fresh)"
[ "${hits:-0}" -ge 1 ] || fail "restarted daemon took no cache hit"
cmp -s "$workdir/result1.json" "$workdir/result3.json" || fail "cached result differs from original"

echo "PASS: serve smoke (result parity, SSE, coalescing, drain+restart cache recall)"
