# Shared scaffold of the smoke scripts. Source it first:
#
#   . "$(dirname "$0")/lib.sh"
#   smoke_setup figures            # or: atacd atacctl atacsim
#
# It moves to the repo root and turns on strict mode; smoke_setup builds the
# named commands into a scratch $workdir that is removed on exit, after
# every background job the script still has (daemons, clients) is killed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

fail() { # fail <message> [file-to-show]...
    local msg=$1 f
    shift
    for f in "$@"; do [ -f "$f" ] && cat "$f" >&2; done
    echo "FAIL: $msg" >&2
    exit 1
}

smoke_setup() { # smoke_setup <cmd>...: build ./cmd/<cmd> into a fresh $workdir
    workdir=$(mktemp -d)
    trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$workdir"' EXIT
    echo "== build"
    local c
    for c in "$@"; do go build -o "$workdir/$c" "./cmd/$c"; done
}

manifest_field() { # manifest_field <file> <numeric-field>
    sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n1
}

# ---- the serving smokes: one daemon or a cluster, three clients, one oracle.
# They set $cores and $seed before calling any of these.

start_atacd() { # start_atacd <host:port> <cache-dir> <log> [atacd flag]...: pid in $daemon_pid
    local addr=$1 cache=$2 log=$3
    shift 3
    "$workdir/atacd" -addr "$addr" -cores "$cores" -seed "$seed" \
        -cache-dir "$cache" -jobs 2 -grace 30s "$@" >>"$log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon on $addr died on startup" "$log"
        sleep 0.2
    done
    fail "daemon did not come up on $addr" "$log"
}

reference_run() { # a direct atacsim radix run: sets $ref_cycles and $ref_instr
    echo "== reference run (direct atacsim)"
    "$workdir/atacsim" -bench radix -cores "$cores" -seed "$seed" >"$workdir/ref.txt"
    ref_cycles=$(awk '/^completion time/ { print $3 }' "$workdir/ref.txt")
    ref_instr=$(awk '/^instructions/ { print $2 }' "$workdir/ref.txt")
    echo "   reference: $ref_cycles cycles, $ref_instr instructions"
}

check_parity() { # check_parity <result.json>: the served radix run equals the reference
    local cycles instr
    cycles=$(grep -o '"Cycles": *[0-9]*' "$1" | head -1 | grep -o '[0-9]*')
    instr=$(grep -o '"Instructions": *[0-9]*' "$1" | head -1 | grep -o '[0-9]*')
    echo "   served:    $cycles cycles, $instr instructions"
    [ "$cycles" = "$ref_cycles" ] || fail "served cycles $cycles != atacsim $ref_cycles"
    [ "$instr" = "$ref_instr" ] || fail "served instructions $instr != atacsim $ref_instr"
}

submit_campaign() { # submit_campaign <atacctl flag>...: radix, ocean_contig, ocean_non_contig, each -wait in the background
    client_pids=()
    local i=0 bench
    for bench in radix ocean_contig ocean_non_contig; do
        i=$((i + 1))
        "$workdir/atacctl" "$@" submit -bench "$bench" -cores "$cores" -seed "$seed" -wait \
            >"$workdir/result$i.json" 2>"$workdir/client$i.log" &
        client_pids+=($!)
    done
}

wait_clients() { # wait_clients <daemon-log>...: all three exited 0 with finished results, radix at parity
    echo "== wait for clients"
    local i bad=0
    for i in 1 2 3; do
        if ! wait "${client_pids[$((i - 1))]}"; then
            echo "FAIL: client $i exited non-zero" >&2
            sed "s/^/   client$i: /" "$workdir/client$i.log" >&2
            bad=1
        fi
    done
    [ "$bad" = 0 ] || fail "a client did not ride across the kill" "$@"
    echo "== served results are complete and radix matches atacsim"
    for i in 1 2 3; do
        grep -q '"Finished": *true' "$workdir/result$i.json" || fail "result $i incomplete" "$workdir/result$i.json"
    done
    check_parity "$workdir/result1.json"
}

wait_settled() { # wait_settled <base-url> <tries> [log]: $health is the /healthz that reports nothing pending
    for _ in $(seq 1 "$2"); do
        health=$(curl -fsS "$1/healthz" 2>/dev/null) || health=""
        if echo "$health" | grep -q '"pending": *0'; then return 0; fi
        sleep 0.2
    done
    fail "$1 still has pending jobs: $health" "${3:-}"
}

# Every fresh simulation appends exactly one "done" record; cache recalls,
# peer read-throughs and replication append none. So a hash with two "done"
# lines is a duplicate simulation. Call it on the raw files, before a clean
# shutdown compacts them to one line per run.
check_no_duplicate_sims() { # check_no_duplicate_sims <journal.jsonl>...
    local dups
    dups=$(cat "$@" | grep '"status":"done"' | grep -o '"hash":"[0-9a-f]*"' |
        sort | uniq -c | awk '$1 > 1' || true)
    [ -z "$dups" ] || fail "duplicate simulations in the journal: $dups"
    echo "   $(cat "$@" | grep -c '"status":"done"' || true) simulations journaled, no hash twice"
}
