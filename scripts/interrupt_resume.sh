#!/usr/bin/env bash
# Interrupt-and-resume smoke test for the campaign engine.
#
# Runs a figure campaign, SIGINTs it mid-flight, and checks the contract
# the resilience layer promises:
#
#   1. the interrupted invocation exits with the distinct interrupt code (4)
#      after draining, leaving a journal next to the result cache;
#   2. a second, identical invocation resumes from the journal+cache —
#      completing only the missing runs, never re-simulating a finished one —
#      and exits 0;
#   3. the resumed output is byte-identical to an uninterrupted reference
#      campaign.
#
# On a fast machine the campaign can finish before the signal lands; the
# test then degrades to checking that a no-op resume still holds (2) and (3).
. "$(dirname "$0")/lib.sh"

# ~8s of campaign at this size: long enough that the 1s-in SIGINT lands
# mid-flight, short enough for CI. (Cores must be a perfect square.)
cores=36
figs=4,8,13,14
jobs=2

smoke_setup figures

echo "== reference campaign (uninterrupted)"
REPRO_CACHE="$workdir/refcache" "$workdir/figures" \
    -cores "$cores" -only "$figs" -jobs "$jobs" -q -o "$workdir/ref.txt" >/dev/null

echo "== interrupted campaign"
export REPRO_CACHE="$workdir/cache"
set +e
"$workdir/figures" -cores "$cores" -only "$figs" -jobs "$jobs" -q -grace 5s \
    -o "$workdir/interrupted.txt" >/dev/null 2>"$workdir/interrupted.log" &
pid=$!
sleep 1
kill -INT "$pid" 2>/dev/null
wait "$pid"
code=$?
set -e

interrupted=1
case "$code" in
4)
    echo "   exit 4 (interrupted), as expected"
    [ -f "$REPRO_CACHE/journal.jsonl" ] || fail "interrupted campaign left no journal"
    ;;
0)
    echo "   campaign outran the signal (exit 0); checking the no-op resume instead"
    interrupted=0
    ;;
*)
    fail "interrupted campaign exited $code, want 4" "$workdir/interrupted.log"
    ;;
esac

echo "== resumed campaign"
"$workdir/figures" -cores "$cores" -only "$figs" -jobs "$jobs" \
    -o "$workdir/resumed.txt" >/dev/null 2>"$workdir/resumed.log"

# Zero duplicate simulations: everything the first invocation completed
# must come back from the cache, and a fully-cached first pass resumes
# with no simulations at all.
summary=$(grep -o '[0-9]* simulations run, [0-9]* recalled from cache' "$workdir/resumed.log" || true)
fresh=${summary%% *}
[ -n "$summary" ] || fail "no campaign summary in resume log" "$workdir/resumed.log"
if [ "$interrupted" = 1 ]; then
    recalled=$(echo "$summary" | sed 's/.*run, \([0-9]*\) recalled.*/\1/')
    [ "$recalled" -ne 0 ] || [ "$fresh" -ne 0 ] || fail "resume neither simulated nor recalled anything: $summary"
    echo "   resume: $summary"
else
    [ "$fresh" -eq 0 ] || fail "no-op resume re-simulated $fresh runs: $summary"
fi

echo "== compare against reference"
if ! cmp -s "$workdir/ref.txt" "$workdir/resumed.txt"; then
    diff "$workdir/ref.txt" "$workdir/resumed.txt" >&2 || true
    fail "resumed output differs from the uninterrupted reference"
fi

echo "PASS: interrupt/resume contract holds (interrupted=$interrupted)"
