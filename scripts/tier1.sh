#!/usr/bin/env bash
# Tier-1 verification: everything CI gates on, runnable offline.
#
#   scripts/tier1.sh          full check (build, tests, clippy, rustdoc),
#                             then the informational surface report
#   scripts/tier1.sh --fast   skip the release build
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
run cargo clippy --all-targets --offline -- -D warnings
# Broken intra-doc links (e.g. to a deleted type) fail the check.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Size and unused public API, for information: never fails the check.
run scripts/surface.sh
echo "tier1: OK"
