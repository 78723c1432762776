#!/bin/bash
# Proof that a refactor left simulated behaviour alone (ROADMAP "One of
# each": figure CSVs byte-identical, sim_ycsb_b [x] metrics bit-equal).
# Builds <parent-ref> and the working tree, runs every figure binary at
# --quick --seed 42 from each, three times, alternating the sides, and
# diffs every run's bench_results/ set against the parent's first. It
# also prints the median wall seconds of every figure on each side, and
# of both totals, with the fastest and slowest run: on a 2-core machine
# one run of a figure can swing by a third, so a simulator speed change
# gets its per-figure numbers from the runs that prove the CSVs equal,
# and a spread to read them against. Then it builds the benchmark
# (perfbench/) from both sides, runs `sim_ycsb_b --trace 1 --seed N` for
# N = 1..10 on each, and diffs the exactly reproducible metrics (the
# names in `EXACT` in perfbench/src/layers.rs, plus the simulated get/put
# p50/p90 latencies).
#
#   scripts/figures_identical.sh <parent-ref>
#
# Exits non-zero if any CSV of any run differs or is missing on either
# side, if a figure binary of the working tree exits non-zero, or if any
# seed's exact metrics differ or are missing. A non-zero exit on the parent
# side is only reported: the parent is history (an old fig11 --quick
# panicked after writing its CSV), and a figure that died before
# finishing its CSV shows up in the diff.
#
# Not part of check.sh: it needs a parent ref and two release builds.
# Everything lands under target/figures_identical/.
set -e -o pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <parent-ref>" >&2
  exit 2
fi
REF=$1
ROOT=$PWD
OUT=$ROOT/target/figures_identical
# Every figure binary: each bench bin except the `report` scorecard.
FIGS=$(basename -s .rs crates/bench/src/bin/*.rs | grep -vx report)

rm -rf "$OUT/then-src" "$OUT/then" "$OUT/now"
mkdir -p "$OUT/then-src" "$OUT/then" "$OUT/now"
git archive "$REF" | tar -x -C "$OUT/then-src"

echo "=== build $REF ==="
(cd "$OUT/then-src" &&
  CARGO_TARGET_DIR="$OUT/then-target" cargo build -q --release --offline -p nice-bench &&
  CARGO_TARGET_DIR="$OUT/then-target" cargo build -q --release --offline \
    --manifest-path perfbench/Cargo.toml)
echo "=== build working tree ==="
CARGO_TARGET_DIR="$ROOT/target" cargo build -q --release --offline -p nice-bench
CARGO_TARGET_DIR="$ROOT/target" cargo build -q --release --offline \
  --manifest-path perfbench/Cargo.toml

status=0
RUNS=3
declare -A secs
# run_figs <dir holding the binaries> <side> <run>: CSVs land in
# $OUT/<side>/run<run>/bench_results (the binaries write relative to
# their cwd); each figure's wall seconds land in
# secs[<side>.<fig>.<run>], their sum in secs[<side>.total.<run>].
run_figs() {
  local dir=$OUT/$2/run$3
  mkdir -p "$dir"
  for fig in $FIGS; do
    start=$EPOCHREALTIME
    if ! (cd "$dir" && "$1/$fig" --quick --seed 42 >"$fig.log" 2>&1); then
      echo "$2: $fig exited non-zero (log: $dir/$fig.log)"
      [ "$2" = then ] || status=1
    fi
    secs[$2.$fig.$3]=$(awk "BEGIN { print $EPOCHREALTIME - $start }")
    secs[$2.total.$3]=$(awk "BEGIN { print ${secs[$2.total.$3]:-0} + ${secs[$2.$fig.$3]} }")
    if [ ! -s "$dir/bench_results/$fig.csv" ]; then
      echo "$2: $fig wrote no CSV (run $3)"
      status=1
    fi
  done
}
for run in $(seq $RUNS); do
  echo "=== figures, run $run of $RUNS: $REF ==="
  run_figs "$OUT/then-target/release" then "$run"
  echo "=== figures, run $run of $RUNS: working tree ==="
  run_figs "$ROOT/target/release" now "$run"
done

# spread <side> <fig>: "median min max" of that figure's wall seconds.
spread() {
  for run in $(seq $RUNS); do echo "${secs[$1.$2.$run]}"; done | sort -g |
    awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)], v[1], v[NR] }'
}
echo "=== wall seconds: median [fastest slowest] of $RUNS runs ==="
printf '%-24s %24.24s %24s\n' figure "$REF" "working tree"
for fig in $FIGS total; do
  read -r tm tlo thi <<<"$(spread then "$fig")"
  read -r nm nlo nhi <<<"$(spread now "$fig")"
  printf '%-24s %8.2f s [%5.2f %5.2f] %8.2f s [%5.2f %5.2f]\n' \
    "$fig" "$tm" "$tlo" "$thi" "$nm" "$nlo" "$nhi"
done

echo "=== diff: every run against $REF run 1 ==="
for run in $(seq $RUNS); do
  for side in then now; do
    [ "$side.$run" = then.1 ] && continue
    diff -r "$OUT/then/run1/bench_results" "$OUT/$side/run$run/bench_results" || status=1
  done
done

# The exact metrics, read from the working tree's list and compared at
# full precision (the JSON line) together with the four simulated
# latencies; each side's values land in $OUT/<side>/sim_ycsb_b.<seed>.exact.
EXACT=$(sed -n '/^pub const EXACT/,/^];/s/^ *"\([^"]*\)",$/\1/p' perfbench/src/layers.rs)
exact_values() {
  grep -E '^# \(traced\) (get|put)_p(50|90)_ms = ' "$1" || true
  for name in $EXACT; do
    grep -o "\"$name\": {\"value\": [^,]*" "$1" || true
  done
}
echo "=== sim_ycsb_b --trace 1, seeds 1..10: $(echo $EXACT | wc -w) exact metrics + 4 latencies ==="
for seed in 1 2 3 4 5 6 7 8 9 10; do
  # One side per core: the two runs of a seed go side by side.
  for side in then now; do
    bin=$ROOT/target/release/benchmark
    [ "$side" = then ] && bin=$OUT/then-target/release/benchmark
    (cd "$OUT/$side" && "$bin" --workload sim_ycsb_b --trace 1 --seed "$seed" \
      >"sim_ycsb_b.$seed.log" 2>&1 || echo "$side: sim_ycsb_b seed $seed exited non-zero") &
  done
  wait
  for side in then now; do
    exact_values "$OUT/$side/sim_ycsb_b.$seed.log" >"$OUT/$side/sim_ycsb_b.$seed.exact"
  done
  if [ "$(wc -l <"$OUT/now/sim_ycsb_b.$seed.exact")" -ne $(($(echo $EXACT | wc -w) + 4)) ]; then
    echo "seed $seed: exact metrics missing (log: $OUT/now/sim_ycsb_b.$seed.log)"
    status=1
  fi
  if diff "$OUT/then/sim_ycsb_b.$seed.exact" "$OUT/now/sim_ycsb_b.$seed.exact"; then
    echo "seed $seed: exact metrics equal"
  else
    status=1
  fi
done

if [ "$status" = 0 ]; then
  echo "figures_identical: $(ls "$OUT/now/run1/bench_results" | wc -l) CSVs byte-identical to $REF" \
    "in all $RUNS runs, sim_ycsb_b exact metrics equal on seeds 1..10"
else
  echo "figures_identical: FAILED" >&2
fi
exit "$status"
