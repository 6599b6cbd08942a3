#!/usr/bin/env bash
# A/B protocol for speed claims: perfbench built from <rev> (the parent)
# against perfbench built from the working tree (the child), run in
# alternating order.
#
#   scripts/ab.sh <rev> [workload] [pairs] [seconds] [metric]
#
#   rev       any commit name, e.g. HEAD~ or main
#   workload  spec_mem, spec_sb (default), parsec_mt or serve_warm
#   pairs     number of parent/child pairs K (default 10); pair i runs
#             both sides with --seed i, parent first when i is odd
#   seconds   --seconds of each run (default 10)
#   metric    the end-to-end metric the claim is about: sim_mops
#             (default) or cells_per_s (higher is better), rtt_p50_ms,
#             setup_s or peak_rss_mb (lower is better)
#
# <rev> is exported with `git archive` into .bench_build/<hash>/src and
# its perfbench is built there once (later calls reuse the binary). The
# working tree (tracked and untracked, unignored files) is copied into
# .bench_build/working-tree/src and built there on every call. The
# script changes nothing under perfbench/ and leaves no git state behind.
#
# Output: per pair, both sides' value of the metric, the ratio
# child/parent and each run's user-CPU seconds (the getrusage children's
# time, read with bash's `times`); then each side's median and
# quartiles, the parent's IQR and the pairs the child won (the better
# value in the metric's direction; ties count for neither side), and the
# medians of the other end-to-end metrics. Every run's full result line
# is kept under .bench_build/ab-<time>/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh <rev> [workload] [pairs] [seconds] [metric]" >&2
  exit 2
}
[[ $# -ge 1 && $# -le 5 ]] || usage
rev=$1
workload=${2:-spec_sb}
pairs=${3:-10}
seconds=${4:-10}
target=${5:-sim_mops}
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seconds" =~ ^[1-9][0-9]*$ ]] || usage
metrics="sim_mops cells_per_s rtt_p50_ms setup_s peak_rss_mb"
case $target in
  sim_mops | cells_per_s) better=higher ;;
  rtt_p50_ms | setup_s | peak_rss_mb) better=lower ;;
  *)
    echo "ab: unknown metric '$target' (one of: $metrics)" >&2
    exit 2
    ;;
esac
hash=$(git rev-parse --verify --quiet --short=12 "$rev^{commit}") || {
  echo "ab: unknown revision '$rev'" >&2
  exit 2
}

# build DIR: perfbench from the sources in DIR/src into DIR/target.
build() {
  cargo build --quiet --release --offline \
    --manifest-path "$1/src/perfbench/Cargo.toml" --target-dir "$1/target"
}

# Both sides build the same way from source paths of the same length (a
# 12-digit hash and "working-tree"), so the binaries differ only where
# the code does.
parent=.bench_build/$hash
if [[ ! -x "$parent/target/release/spb-perfbench" ]]; then
  echo "==> building perfbench at $rev ($hash) in $parent" >&2
  rm -rf "$parent/src"
  mkdir -p "$parent/src"
  git archive "$hash" | tar -x -C "$parent/src"
  build "$parent"
fi
child=.bench_build/working-tree
echo "==> building perfbench from the working tree in $child" >&2
rm -rf "$child/src"
mkdir -p "$child/src"
# --ignore-failed-read: files deleted from the working tree but not
# from the index are listed too.
git ls-files -z --cached --others --exclude-standard |
  tar -c --null --ignore-failed-read -T - 2>/dev/null | tar -x -C "$child/src"
build "$child"
parent_bin=$parent/target/release/spb-perfbench
child_bin=$child/target/release/spb-perfbench

logs=.bench_build/ab-$(date +%Y%m%d-%H%M%S)
mkdir -p "$logs"

# Sets user_s to the user-CPU seconds of all children reaped so far: the
# second line of `times`, which must run in this shell, not in a command
# substitution (a subshell's children start at 0).
child_user_s() {
  times > "$logs/times"
  user_s=$(awk 'NR == 2 { split($1, t, /[ms]/); print t[1] * 60 + t[2] }' "$logs/times")
}

# run SIDE BIN PAIR: one perfbench run; sets val and cpu (its value of
# the target metric and user-CPU seconds).
run() {
  local log="$logs/$1-$3.log" before
  child_user_s
  before=$user_s
  if ! "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 > "$log" 2>&1; then
    echo "ab: $1 run of pair $3 failed; see $log" >&2
    exit 1
  fi
  child_user_s
  tail -n 1 "$log" > "$logs/$1-$3.json"
  val=$(metric "$target" "$logs/$1-$3.json")
  cpu=$(awk -v a="$user_s" -v b="$before" 'BEGIN { printf "%.2f", a - b }')
}

# metric NAME FILE: the value of an end-to-end metric in a result line.
metric() {
  sed -E 's/.*"'"$1"'":\{"value":([-0-9.eE+]+).*/\1/' "$2"
}

# quartiles: "q1 median q3" of the numbers on stdin (linear interpolation).
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
    END { v[NR + 1] = v[NR]; printf "%.4g %.4g %.4g\n", q(0.25), q(0.5), q(0.75) }'
}

# beats A B: whether value A is better than value B for the target.
beats() {
  if [[ $better == higher ]]; then
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(a > b) }'
  else
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(a < b) }'
  fi
}

echo "ab: $workload, $pairs pairs of ${seconds}s runs, parent $rev ($hash) vs working tree"
echo "ab: metric $target ($better is better)"
printf '%4s  %12s %12s %8s  %10s %10s\n' pair parent child ratio "parent_cpu" "child_cpu"
won=0 lost=0
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run parent "$parent_bin" "$i"; p=$val pu=$cpu
    run child "$child_bin" "$i"; c=$val cu=$cpu
  else
    run child "$child_bin" "$i"; c=$val cu=$cpu
    run parent "$parent_bin" "$i"; p=$val pu=$cpu
  fi
  ratio=$(awk -v c="$c" -v p="$p" 'BEGIN { printf "%.3f", c / p }')
  if beats "$c" "$p"; then
    won=$((won + 1))
  elif beats "$p" "$c"; then
    lost=$((lost + 1))
  fi
  printf '%4d  %12.3f %12.3f %8s  %9ss %9ss\n' "$i" "$p" "$c" "$ratio" "$pu" "$cu"
done

read -r pq1 pmed pq3 < <(for f in "$logs"/parent-*.json; do metric "$target" "$f"; done | quartiles)
read -r cq1 cmed cq3 < <(for f in "$logs"/child-*.json; do metric "$target" "$f"; done | quartiles)
echo "$target parent: median $pmed (q1 $pq1, q3 $pq3), IQR $(awk -v a="$pq3" -v b="$pq1" 'BEGIN { printf "%.4g", a - b }')"
echo "$target child:  median $cmed (q1 $cq1, q3 $cq3)"
echo "median ratio child/parent: $(awk -v c="$cmed" -v p="$pmed" 'BEGIN { printf "%.3f", c / p }')x; child won $won of $pairs pairs (lost $lost)"
for m in $metrics; do
  [[ $m == "$target" ]] && continue
  pm=$(for f in "$logs"/parent-*.json; do metric "$m" "$f"; done | quartiles | cut -d' ' -f2)
  cm=$(for f in "$logs"/child-*.json; do metric "$m" "$f"; done | quartiles | cut -d' ' -f2)
  echo "$m median: parent $pm, child $cm"
done
echo "result lines: $logs"
