#!/usr/bin/env bash
# Chaos smoke test of the crash-only serving stack (atacd + atacctl).
#
# A small campaign is submitted through the daemon while the daemon is
# SIGKILLed — no drain, no cleanup — at seeded random points and
# restarted each time. The crash-only contract requires:
#
#   1. every client (atacctl submit -wait) rides across the kills on its
#      own retries and SSE reconnection, and exits 0;
#   2. the restarted daemon resumes the jobs the dead one owed answers
#      for, and the campaign completes;
#   3. zero duplicate simulations, verified from the run journal: each
#      run hash has at most one "done" record across all daemon lives
#      (cache recalls write no journal records, so a duplicate line is a
#      duplicate simulation);
#   4. the served results match a direct atacsim run of the same spec.
#
# Seeded: CHAOS_SEED (default 42) fixes the kill schedule; CHAOS_KILLS
# (default 2) is how many times the daemon dies.
. "$(dirname "$0")/lib.sh"

cores=16
seed=42
addr=127.0.0.1:18477
base=http://$addr
chaos_seed=${CHAOS_SEED:-42}
kills=${CHAOS_KILLS:-2}

smoke_setup atacd atacctl atacsim
start_daemon() { start_atacd "$addr" "$workdir/cache" "$workdir/atacd.log"; }
reference_run

echo "== start daemon (seed=$chaos_seed kills=$kills)"
start_daemon

echo "== submit campaign (3 clients, -wait, riding restarts on retries)"
submit_campaign -addr "$base" -retries 12

for k in $(seq 1 "$kills"); do
    # Seeded random kill point: somewhere inside the campaign's runtime.
    delay=$(awk -v s="$((chaos_seed + k))" 'BEGIN { srand(s); printf "%.2f", 0.15 + rand() * 0.9 }')
    sleep "$delay"
    echo "== SIGKILL $k/$kills after ${delay}s"
    kill -9 "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    start_daemon
done

wait_clients "$workdir/atacd.log"

echo "== journal-verified zero duplicate simulations"
# The raw file, BEFORE the final daemon shutdown, across all daemon lives.
journal="$workdir/cache/journal.jsonl"
[ -f "$journal" ] || fail "no journal at $journal"
check_no_duplicate_sims "$journal"

echo "== daemon settled: nothing pending in the job store"
# Clients exit the moment their job reports done; the worker's ledger
# settle (and the resumed jobs' cache recalls) may land moments later.
wait_settled "$base" 25
echo "$health" | grep -q '"writable": *true' || fail "store not writable: $health"
grep -q 'resume: re-enqueueing' "$workdir/atacd.log" ||
    fail "no resume in the daemon log (kill landed outside the campaign?)" "$workdir/atacd.log"

echo "PASS: chaos smoke ($kills SIGKILLs, clients survived, zero duplicate sims, result parity)"
