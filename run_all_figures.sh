#!/bin/bash
# Regenerates every table and figure of the NICE (HPDC '17) evaluation at
# paper scale. Output: bench_results/*.csv (+ .log copies of stdout).
# Pass --quick to every binary for a fast smoke run.
set -e
cd "$(dirname "$0")"
ARGS="$@"

# Preflight: fmt, clippy, xtask lint, offline build + tests, plus the
# slow failure suites in release. Figures are only regenerated from a
# tree that passes the full gate.
./scripts/check.sh --release

mkdir -p bench_results
# Every figure binary: each bench bin except the `report` scorecard.
for fig in $(basename -s .rs crates/bench/src/bin/*.rs | grep -vx report); do
  echo "=== $fig ==="
  cargo run --release -p nice-bench --bin $fig -- $ARGS 2>&1 | tee bench_results/$fig.log
done
