#!/usr/bin/env bash
# Bench smoke: build the bench tooling, take a fresh quick-grid wall-time
# snapshot, schema-validate it and the committed snapshots, and compare
# against the committed baseline.
#
#   scripts/bench_smoke.sh              full run (fresh snapshot + compare)
#   scripts/bench_smoke.sh --validate   only schema-check the committed files
#
# Performance is advisory here: regressions beyond the tolerance print
# warnings but never fail the job (CI machines are too noisy to gate
# on); only a missing/invalid snapshot or a broken bench build fails.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --offline -p spb-bench

# Every committed snapshot must exist — a silently dropped file would
# turn the regression comparison into a no-op.
for snap in BENCH_BASELINE.json BENCH_EVENTKERNEL.json BENCH_PR8.json BENCH_PR9.json \
            BENCH_PR10.json BENCH_PR17.json BENCH_PR23.json; do
  if [[ ! -s "$snap" ]]; then
    echo "bench_smoke: FAIL — expected committed snapshot $snap is missing or empty." >&2
    echo "  Regenerate it with: ./target/release/bench_snapshot --kernel event --out $snap" >&2
    exit 1
  fi
done

# The committed snapshots must always parse against the current schema.
# --compare schema-validates both sides before diffing.
run ./target/release/bench_snapshot --compare BENCH_BASELINE.json BENCH_EVENTKERNEL.json
run ./target/release/bench_snapshot --compare BENCH_BASELINE.json BENCH_PR8.json
run ./target/release/bench_snapshot --compare BENCH_PR8.json BENCH_PR9.json
run ./target/release/bench_snapshot --compare BENCH_PR9.json BENCH_PR10.json
run ./target/release/bench_snapshot --compare BENCH_PR10.json BENCH_PR17.json
run ./target/release/bench_snapshot --compare BENCH_PR17.json BENCH_PR23.json

if [[ "${1:-}" == "--validate" ]]; then
  echo "bench_smoke: OK (validate only)"
  exit 0
fi

# Fresh snapshot with the current binary; warn (non-blocking) if it
# regressed more than the tolerance against the committed baseline.
fresh="$(mktemp -t bench_fresh.XXXXXX.json)"
trap 'rm -f "$fresh"' EXIT
run ./target/release/bench_snapshot --kernel event --out "$fresh" --samples "${SPB_BENCH_SAMPLES:-3}"
run ./target/release/bench_snapshot --compare BENCH_BASELINE.json "$fresh"

# The benches themselves must still run (and their built-in cycle-count
# assertions must hold).
run cargo bench -p spb-bench --offline --bench kernels
echo "bench_smoke: OK"
