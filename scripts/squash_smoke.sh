#!/usr/bin/env bash
# Squash-storm gate: the wrong-path speculation model's CI check.
#
#   scripts/squash_smoke.sh
#
# Runs the squash_smoke binary: a quick squash sweep at rates
# 0 / 0.05 / 0.2 under the tick and skip-ahead kernels (bit-identical counters,
# zero invariant violations), the flat leak oracle on every cell,
# the rate-0 golden-grid byte-identity check, and a squash-enabled
# fuzzer batch including the forget-to-untag negative control.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo run --release --offline -p spb-verify --bin squash_smoke
echo "squash_smoke: wrapper OK"
