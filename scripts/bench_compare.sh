#!/usr/bin/env bash
# Bench gate: the blocking perf-regression check CI runs on every PR.
#
#   scripts/bench_compare.sh                    gate against BENCH_PR9.json
#   scripts/bench_compare.sh BENCH_OTHER.json   gate against another snapshot
#
# Takes a fresh wheel-kernel snapshot of the quick SPEC grid and runs
# `bench_snapshot --gate` against the committed baseline. The gate
# compares per-bench MINIMA and calibrates by the snapshot-wide median
# ratio, so a uniformly slower CI runner passes while any bench that
# regressed >25% relative to its peers (GATE_TOLERANCE, 1.25, in
# crates/bench/src/snapshot.rs) fails the job. This is the
# blocking counterpart of scripts/bench_smoke.sh (which stays advisory).
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_PR9.json}"

run() {
  echo "==> $*"
  "$@"
}

if [[ ! -s "$baseline" ]]; then
  echo "bench_compare: FAIL — committed baseline $baseline is missing or empty." >&2
  echo "  Regenerate it with: ./target/release/bench_snapshot --kernel wheel --out $baseline" >&2
  exit 1
fi

run cargo build --release --offline -p spb-bench

fresh="$(mktemp -t bench_gate.XXXXXX.json)"
trap 'rm -f "$fresh"' EXIT
run ./target/release/bench_snapshot --kernel wheel --out "$fresh" --samples "${SPB_BENCH_SAMPLES:-3}"
run ./target/release/bench_snapshot --gate "$baseline" "$fresh"
echo "bench_compare: OK"
