#!/usr/bin/env bash
# Tier-1 verification: everything CI gates on, runnable offline.
#
#   scripts/tier1.sh          full check (build, tests, rustfmt, clippy, rustdoc),
#                             then the informational surface report
#   scripts/tier1.sh --fast   skip the release build
#
# Every correctness gate is a `cargo test` (TESTING.md, "CI gates",
# names the test behind each property): fault injection, zero-cost
# tracing, the oracles and fuzzer, squash storms, serve kill -9
# recovery and tune determinism included. CI adds only the benchmark
# and the wall-time bench steps, which need a quiet host.
#
# The workspace has no external dependencies (everything external is
# shimmed under crates/), so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() {
  echo "==> $*"
  "$@"
}

if [[ "$FAST" == 0 ]]; then
  run cargo build --release --offline
fi
run cargo test -q --workspace --offline
# Formatting is part of the check, so a line count never drops by
# denser formatting.
run cargo fmt --all --check
run cargo clippy --all-targets --offline -- -D warnings
# Broken intra-doc links (e.g. to a deleted type) fail the check.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Size and unused public API, for information: never fails the check.
run scripts/surface.sh
echo "tier1: OK"
