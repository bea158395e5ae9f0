#!/usr/bin/env bash
# Sharded-serving smoke test (DESIGN.md §14): boot two `ihtl-serve` shard
# workers and an `ihtl-router` on ephemeral ports, register R-MAT datasets
# through the router (which shards them across the workers), and check
# that each router-merged PageRank checksum is bitwise identical to the
# same job on a single unsharded worker. The scale-17 dataset's `sweep`
# lines are over 1 MiB, the worker line limit of earlier releases. Then
# kill one worker and check that the next routed job degrades to a clean
# error, not a hang.
# Everything is offline and must finish well under 30 s from a warm build.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=target/release/ihtl-serve
ROUTER=target/release/ihtl-router
CLI=target/release/ihtl-cli
if [[ ! -x "$SERVE" || ! -x "$ROUTER" || ! -x "$CLI" ]]; then
    echo "==> building serve + router binaries (release)"
    cargo build --release --offline -p ihtl-serve -p ihtl-router
fi

workdir=$(mktemp -d)

cleanup() {
    for pid in "${w1_pid:-}" "${w2_pid:-}" "${router_pid:-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

wait_port() { # pid port_file log
    for _ in $(seq 1 100); do
        [[ -s "$2" ]] && return 0
        kill -0 "$1" 2>/dev/null || { cat "$3"; echo "process died"; exit 1; }
        sleep 0.1
    done
    echo "process never wrote its port"
    exit 1
}

echo "==> booting two shard workers on ephemeral ports"
"$SERVE" --addr 127.0.0.1:0 --port-file "$workdir/w1.port" >"$workdir/w1.log" 2>&1 &
w1_pid=$!
"$SERVE" --addr 127.0.0.1:0 --port-file "$workdir/w2.port" >"$workdir/w2.log" 2>&1 &
w2_pid=$!
wait_port "$w1_pid" "$workdir/w1.port" "$workdir/w1.log"
wait_port "$w2_pid" "$workdir/w2.port" "$workdir/w2.log"
w1="127.0.0.1:$(cat "$workdir/w1.port")"
w2="127.0.0.1:$(cat "$workdir/w2.port")"
echo "    workers on $w1 and $w2"

echo "==> booting the router in front of them"
"$ROUTER" --addr 127.0.0.1:0 --workers "$w1,$w2" --port-file "$workdir/r.port" \
    >"$workdir/r.log" 2>&1 &
router_pid=$!
wait_port "$router_pid" "$workdir/r.port" "$workdir/r.log"
router="127.0.0.1:$(cat "$workdir/r.port")"
echo "    router on $router"

checksum() { sed 's/.*"checksum":"\([0-9a-f]*\)".*/\1/' <<<"$1"; }

# routed_vs_single NAME RMAT_FLAGS...: registers NAME through the router and
# NAME-full on worker 1, runs the same PageRank on both, and compares.
routed_vs_single() {
    local name=$1
    shift
    echo "==> register $name ($*) through the router (sharded 2 ways)"
    "$CLI" --addr "$router" register "$name" "$@"
    echo "==> pagerank on $name via the router (merged across shards)"
    local routed solo
    routed=$("$CLI" --addr "$router" job "$name" pagerank --iters 10 --engine pull_grind --top 3)
    echo "$routed"
    echo "==> same dataset, unsharded, on worker 1 as the single-node reference"
    "$CLI" --addr "$w1" register "$name-full" "$@"
    solo=$("$CLI" --addr "$w1" job "$name-full" pagerank --iters 10 --engine pull_grind --top 3)
    echo "$solo"
    local sum_routed sum_solo
    sum_routed=$(checksum "$routed")
    sum_solo=$(checksum "$solo")
    [[ -n "$sum_routed" && "$sum_routed" == "$sum_solo" ]] || {
        echo "$name: router-merged checksum differs from single node: $sum_routed vs $sum_solo"
        exit 1
    }
    echo "    $name checksums match bitwise: $sum_routed"
}

"$CLI" --addr "$router" ping
routed_vs_single smoke --rmat-scale 12 --edges 40000 --seed 7
routed_vs_single big --rmat-scale 17 --edges 1048576 --seed 7

echo "==> kill worker 2; the next routed job must fail cleanly"
kill -9 "$w2_pid"
wait "$w2_pid" 2>/dev/null || true
unset w2_pid
if degraded=$("$CLI" --addr "$router" job smoke pagerank --iters 10 --engine pull_grind 2>&1); then
    echo "job against a dead worker must fail: $degraded"
    exit 1
fi
grep -q "worker" <<<"$degraded" || { echo "error must name the worker: $degraded"; exit 1; }
echo "    degraded reply names the dead worker"

echo "==> router stats report the dead worker"
stats=$("$CLI" --addr "$router" stats)
echo "$stats"
grep -q '"reachable":false' <<<"$stats" || { echo "stats must show the dead worker"; exit 1; }

echo "==> shutdown router and surviving worker"
"$CLI" --addr "$router" shutdown
"$CLI" --addr "$w1" shutdown
for pid in "$router_pid" "$w1_pid"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "process $pid did not exit after shutdown op"
        exit 1
    fi
done
unset router_pid w1_pid

echo "OK: shard smoke (2 workers + router, bitwise-equal merge, clean degradation)"
