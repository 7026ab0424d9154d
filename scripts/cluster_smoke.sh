#!/usr/bin/env bash
# Chaos smoke test of the fault-tolerant atacd cluster.
#
# Three daemons — separate caches, ledgers, and journals — join one
# rendezvous-hash ring. A small campaign is submitted through the
# cluster, the node that OWNS the first job's run hash is SIGKILLed
# mid-flight, and the cluster contract requires:
#
#   1. every client (atacctl submit -wait with -endpoints) rides across
#      the kill: watch streams rotate to survivors, lost jobs are
#      resubmitted automatically (idempotent run-hash identity), and
#      all clients exit 0;
#   2. the served results are byte-identical to a direct atacsim run of
#      the same spec — placement and failover change nothing;
#   3. zero duplicate simulations, verified across the CONCATENATED
#      journals of all three nodes: each run hash has at most one "done"
#      record cluster-wide (cache recalls and peer read-throughs write
#      no journal records);
#   4. the killed node restarts, rejoins the ring, resumes its ledger,
#      recalls everything from its peers' caches, and drains to zero
#      pending without re-simulating.
#
# Seeded: CHAOS_SEED (default 42) fixes the kill point.
. "$(dirname "$0")/lib.sh"

cores=16
seed=42
chaos_seed=${CHAOS_SEED:-42}
ports=(18481 18482 18483)
peers="http://127.0.0.1:${ports[0]},http://127.0.0.1:${ports[1]},http://127.0.0.1:${ports[2]}"
node_pids=("" "" "")

smoke_setup atacd atacctl atacsim
start_node() { # start_node <n>: boot node n (1-based) on its port with its own state dir
    start_atacd "127.0.0.1:${ports[$(($1 - 1))]}" "$workdir/node$1/cache" "$workdir/node$1.log" \
        -peers "$peers" -replicas 2 -probe-interval 500ms
    node_pids[$(($1 - 1))]=$daemon_pid
}
reference_run

echo "== start 3-node cluster"
start_node 1
start_node 2
start_node 3
base1=http://127.0.0.1:${ports[0]}

echo "== discover the radix run's owner (consistent-hash placement)"
# A plain submit through node 1: the ring forwards it to the run hash's
# owner, whose URL comes back in the job's "peer" field.
"$workdir/atacctl" -addr "$base1" -q submit -bench radix -cores "$cores" -seed "$seed" \
    >"$workdir/placed.json"
owner_url=$(grep -o '"peer": *"[^"]*"' "$workdir/placed.json" | head -1 | sed 's/.*"\(http[^"]*\)"/\1/')
[ -n "$owner_url" ] || fail "no peer field in placement response" "$workdir/placed.json"
victim=0
for n in 1 2 3; do
    [ "${owner_url##*:}" = "${ports[$((n - 1))]}" ] && victim=$n
done
[ "$victim" != 0 ] || fail "unknown peer URL $owner_url"
echo "   radix owner: node $victim ($owner_url)"

echo "== submit campaign (3 clients, -wait, hedging across all endpoints)"
submit_campaign -addr "$base1" -endpoints "$peers" -retries 5

# Seeded kill point inside the campaign's runtime, then SIGKILL the
# owner — no drain, no cleanup. Its in-flight work is simply gone; the
# contract is that the survivors absorb it.
delay=$(awk -v s="$chaos_seed" 'BEGIN { srand(s); printf "%.2f", 0.15 + rand() * 0.9 }')
sleep "$delay"
echo "== SIGKILL node $victim (the radix owner) after ${delay}s"
kill -9 "${node_pids[$((victim - 1))]}" 2>/dev/null || true
wait "${node_pids[$((victim - 1))]}" 2>/dev/null || true

wait_clients "$workdir"/node?.log

echo "== restart node $victim: it rejoins and drains its ledger from peer caches"
start_node "$victim"
for n in 1 2 3; do
    wait_settled "http://127.0.0.1:${ports[$((n - 1))]}" 50 "$workdir/node$n.log"
    echo "$health" | grep -q '"size": *3' || fail "node $n healthz has no 3-node cluster block: $health"
done

echo "== journal-verified zero duplicate simulations cluster-wide"
# Every node's journal, the restarted victim's lives included.
check_no_duplicate_sims "$workdir"/node*/cache/journal.jsonl

echo "== cluster metrics exposed"
metrics=$(curl -fsS "$base1/metrics")
echo "$metrics" | grep -q '^atacd_build_info{' || fail "no build-info gauge on /metrics"
echo "$metrics" | grep -q '^atacd_peer_healthy{' || fail "no per-peer health gauge on /metrics"

echo "PASS: cluster smoke (owner SIGKILLed mid-flight, clients survived, zero duplicate sims cluster-wide, result parity)"
