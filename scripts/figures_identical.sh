#!/bin/bash
# Proof that a refactor left simulated behaviour alone (ROADMAP "One of
# each": figure CSVs byte-identical, sim_ycsb_b [x] metrics bit-equal).
# Builds <parent-ref> and the working tree, runs every figure binary at
# --quick --seed 42 from each, and diffs the two bench_results/ sets. It
# also prints the wall seconds of every figure on each side, and both
# totals, so a simulator speed change gets its per-figure numbers from
# the run that proves the CSVs equal. Then it builds the benchmark
# (perfbench/) from both sides, runs `sim_ycsb_b --trace 1 --seed N` for
# N = 1..10 on each, and diffs the exactly reproducible metrics (the
# names in `EXACT` in perfbench/src/layers.rs, plus the simulated get/put
# p50/p90 latencies).
#
#   scripts/figures_identical.sh <parent-ref>
#
# Exits non-zero if any CSV differs or is missing on either side, if a
# figure binary of the working tree exits non-zero, or if any seed's
# exact metrics differ or are missing. A non-zero exit on the parent
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
FIGS="fig04_routing fig05_replication fig06_network_load fig07_load_ratio \
      fig08_quorum fig09_consistency fig10_load_balancing \
      fig11_fault_tolerance fig12_ycsb fault_sweep switch_scalability \
      membership_scalability ablation_replication ablation_lb"

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
declare -A secs
# run_figs <dir holding the binaries> <side>: CSVs land in
# $OUT/<side>/bench_results (the binaries write relative to their cwd);
# each figure's wall seconds land in secs[<side>.<fig>], their sum in
# secs[<side>.total].
run_figs() {
  for fig in $FIGS; do
    start=$EPOCHREALTIME
    if ! (cd "$OUT/$2" && "$1/$fig" --quick --seed 42 >"$fig.log" 2>&1); then
      echo "$2: $fig exited non-zero (log: $OUT/$2/$fig.log)"
      [ "$2" = then ] || status=1
    fi
    secs[$2.$fig]=$(awk "BEGIN { print $EPOCHREALTIME - $start }")
    secs[$2.total]=$(awk "BEGIN { print ${secs[$2.total]:-0} + ${secs[$2.$fig]} }")
    if [ ! -s "$OUT/$2/bench_results/$fig.csv" ]; then
      echo "$2: $fig wrote no CSV"
      status=1
    fi
  done
}
echo "=== figures: $REF ==="
run_figs "$OUT/then-target/release" then
echo "=== figures: working tree ==="
run_figs "$ROOT/target/release" now

echo "=== wall seconds ==="
printf '%-24s %14.14s %14s\n' figure "$REF" "working tree"
for fig in $FIGS total; do
  printf '%-24s %12.2f s %12.2f s\n' "$fig" "${secs[then.$fig]}" "${secs[now.$fig]}"
done

echo "=== diff ==="
diff -r "$OUT/then/bench_results" "$OUT/now/bench_results" || status=1

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
  echo "figures_identical: $(ls "$OUT/now/bench_results" | wc -l) CSVs byte-identical to $REF," \
    "sim_ycsb_b exact metrics equal on seeds 1..10"
else
  echo "figures_identical: FAILED" >&2
fi
exit "$status"
