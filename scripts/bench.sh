#!/usr/bin/env bash
# Refreshes the machine-readable perf trajectory: runs the bench_spmv
# binary over the fixed R-MAT suite and writes results/BENCH_spmv.json,
# embedding the checked-in seed capture (results/BENCH_spmv.seed.json) as
# the baseline so the file carries its own before/after speedup. A second
# multi-threaded pass (IHTL_THREADS=4) writes results/BENCH_spmv.t4.json
# so the trajectory captures parallel scaling, not just threads=1; that
# pass carries no gates because the seed baseline was captured
# single-threaded.
#
# Usage: scripts/bench.sh [--samples N] [--max-regress PCT] [--trace-ab]
#                         [--spmm] [--engines] [--engines-gate PCT]
#
# --max-regress PCT fails the run if the iHTL SpMV ns/edge geomean is more
# than PCT percent worse than the seed capture (the verify.sh perf gate).
# --trace-ab additionally records tracing-enabled vs idle kernel cost.
# --spmm additionally runs the batched SpMM A/B (K=1/2/4/8 columns per edge
# sweep) and writes results/BENCH_spmm.json; combined with --max-regress it
# also fails unless K=8 amortizes below K=1 on at least one dataset.
# --engines runs the three-engine A/B matrix (pull/ihtl/pb plus the auto
# pick) on a machine-sized suite, writing results/BENCH_engines.json;
# --engines-gate PCT fails unless auto lands within PCT% of the best fixed
# engine everywhere and pb beats pull on the thrashing rmat.
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES=7
EXTRA=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --samples) SAMPLES="$2"; shift 2 ;;
    --max-regress) EXTRA+=(--max-regress "$2"); shift 2 ;;
    --trace-ab) EXTRA+=(--trace-ab); shift ;;
    --spmm) EXTRA+=(--spmm); shift ;;
    --engines) EXTRA+=(--engines); shift ;;
    --engines-gate) EXTRA+=(--engines-gate "$2"); shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release --offline -p ihtl-bench --bin bench_spmv"
cargo build --release --offline -p ihtl-bench --bin bench_spmv

echo "==> bench_spmv IHTL_THREADS=1 (samples=$SAMPLES) -> results/BENCH_spmv.json"
IHTL_THREADS=1 ./target/release/bench_spmv \
  --baseline results/BENCH_spmv.seed.json \
  --out results/BENCH_spmv.json \
  --samples "$SAMPLES" ${EXTRA[@]+"${EXTRA[@]}"} >/dev/null

echo "==> bench_spmv IHTL_THREADS=4 (samples=$SAMPLES) -> results/BENCH_spmv.t4.json"
IHTL_THREADS=4 ./target/release/bench_spmv \
  --baseline results/BENCH_spmv.seed.json \
  --out results/BENCH_spmv.t4.json \
  --samples "$SAMPLES" >/dev/null

echo "OK: wrote results/BENCH_spmv.json and results/BENCH_spmv.t4.json"
