#!/usr/bin/env bash
# Cache-contract smoke test of one figure: figure_smoke.sh techsweep|xtopo
#
# Runs the figure (two sweep points, 16 cores) through the cached campaign
# engine and checks its cache contract:
#
#   1. the figure renders what the sweep asked for, and every run of the
#      cold campaign is simulated:
#        techsweep  one row per scenario, normalized to the paper's
#                   11nm/baseline point, all re-costed from one ATAC+ run
#                   per benchmark (a scenario is not part of the run
#                   identity); the provenance manifest records the
#                   campaign's default scenario and the swept scenario set;
#        xtopo      one column group per topology (the electrical reference
#                   and the Corona crossbar), each topology its own runs,
#                   per-benchmark rows plus the average, normalized to the
#                   first topology;
#   2. a second, identical invocation is answered entirely from the cache
#      (zero fresh simulations) and renders byte-identical output: the
#      run identity is deterministic;
#   3. cache entries stamped with an older schema (techsweep: the
#      pre-scenario 2 and 3; xtopo: the pre-crossbar 3 and 4) are
#      quarantined, never served: corrupting two live entries forces exactly
#      two re-simulations, moves the stale files into quarantine/, and still
#      renders byte-identical output.
. "$(dirname "$0")/lib.sh"

fig=${1:-}
case "$fig" in
techsweep)
    sweep=(-scenarios "11nm/baseline,7nm/baseline")
    in_output=("^11nm/baseline" "^7nm/baseline")
    in_manifest=('"tech": "11nm"' '"optics": "baseline"' '"7nm/baseline"')
    stale_schema=2
    ;;
xtopo)
    sweep=(-topos "bcast,corona")
    in_output=("EMesh-BCast EDP" "Corona EDP" "^average")
    in_manifest=()
    stale_schema=3
    ;;
*)
    echo "usage: $0 techsweep|xtopo" >&2
    exit 2
    ;;
esac

smoke_setup figures
export REPRO_CACHE="$workdir/cache"
campaign() { # campaign <n>: render the figure into out<n>.txt
    "$workdir/figures" -cores 16 -only "$fig" "${sweep[@]}" -jobs 2 -q \
        -o "$workdir/out$1.txt" >/dev/null 2>"$workdir/run$1.log" ||
        fail "figures exited $?" "$workdir/run$1.log"
}
same_as_cold() { # same_as_cold <n> <what>
    cmp -s "$workdir/out1.txt" "$workdir/out$1.txt" && return 0
    diff "$workdir/out1.txt" "$workdir/out$1.txt" >&2 || true
    fail "$2 output differs from the cold output"
}

echo "== cold campaign (every run simulated)"
campaign 1
cp "$workdir/manifest.json" "$workdir/manifest1.json"
for want in "${in_output[@]}"; do
    grep -q -- "$want" "$workdir/out1.txt" || fail "$fig output has no \"$want\"" "$workdir/out1.txt"
done
for want in "${in_manifest[@]}"; do
    grep -q -- "$want" "$workdir/manifest1.json" || fail "manifest does not record $want" "$workdir/manifest1.json"
done
runs=$(manifest_field "$workdir/manifest1.json" runs)
fresh=$(manifest_field "$workdir/manifest1.json" fresh_runs)
[ "$fresh" -eq "$runs" ] || fail "cold campaign simulated $fresh of $runs runs"
echo "   $runs runs simulated, both sweep points rendered"

echo "== warm campaign (everything from the cache)"
campaign 2
fresh=$(manifest_field "$workdir/manifest.json" fresh_runs)
hits=$(manifest_field "$workdir/manifest.json" cache_hits)
[ "$fresh" -eq 0 ] && [ "$hits" -eq "$runs" ] ||
    fail "warm campaign re-simulated $fresh runs ($hits cache hits, want $runs)"
same_as_cold 2 warm
echo "   zero fresh simulations, byte-identical output"

echo "== stale-schema quarantine"
# Rewrite the stamp of two live entries (whatever the current schema) to
# older cache generations; the campaign must quarantine them and
# re-simulate exactly those two runs.
stale=0
for f in "$REPRO_CACHE"/*.json; do
    [ "$stale" -ge 2 ] && break
    sed -i -E "s/^\{\"schema\":[0-9]+/{\"schema\":$((stale_schema + stale))/" "$f"
    stale=$((stale + 1))
done
[ "$stale" -eq 2 ] || fail "found only $stale cache entries to corrupt"
campaign 3
fresh=$(manifest_field "$workdir/manifest.json" fresh_runs)
[ "$fresh" -eq 2 ] || fail "stale-schema pass re-simulated $fresh runs, want 2" "$workdir/run3.log"
quarantined=$(ls "$REPRO_CACHE/quarantine" 2>/dev/null | wc -l)
[ "$quarantined" -eq 2 ] || fail "$quarantined entries in quarantine/, want 2"
same_as_cold 3 post-quarantine
echo "   2 stale entries quarantined and re-simulated, output unchanged"

echo "PASS: $fig cache contract holds"
