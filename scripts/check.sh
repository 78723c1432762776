#!/bin/bash
# The full local gate: formatting, clippy (deny-level groups are set in
# [workspace.lints]), the project-specific static-analysis suite, and the
# offline build + tests. run_all_figures.sh runs this as a preflight so
# figures are never regenerated from a tree that fails the gate.
#
# Everything runs --offline: the workspace has no external dependencies
# (DESIGN.md §6) and must stay buildable without registry access.
#
# --release additionally runs the slow suites (the exhaustive 2PC
# interleaving checker, the fault-injection sweeps, and the failure
# tests) as optimized builds; run_all_figures.sh uses this mode so
# figures are never regenerated from a tree whose failure paths regress.
set -e -o pipefail
cd "$(dirname "$0")/.."

RELEASE=0
for arg in "$@"; do
  case "$arg" in
    --release) RELEASE=1 ;;
    *) echo "check.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

echo "=== fmt ==="
cargo fmt --all --check

echo "=== clippy ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== docs ==="
# Rustdoc with warnings denied: a dangling intra-doc link (a renamed or
# deleted item still named in a doc comment) fails here.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "=== xtask lint (baseline ratchet) ==="
# The byte-stable machine-readable report lands in target/ for tooling.
# A finding whose key is missing from lint_baseline.json fails the gate;
# a finding that disappeared shrinks the baseline in place (commit the
# shrunk file). See DESIGN.md §10 for the key format and rule list.
mkdir -p target
if ! cargo run -q -p xtask --offline -- lint --json > target/lint_report.json; then
  # Re-run human-readable so the offending call chains are on screen.
  cargo run -q -p xtask --offline -- lint
  exit 1
fi

echo "=== build (release) ==="
cargo build --release --offline --workspace

echo "=== tests ==="
# The workspace run includes kv-core's DPOR interleaving sweep (full
# 756,756-schedule coverage of the 3-put x 2-replica space by
# equivalence classes, plus the prefix-class failover space — in debug,
# every run; DESIGN.md §7) and the fast chaos tier (two fixed seeds
# across all four cells, NICE/NOOB x 2PC/primary, linearizability-
# checked; CHAOS_SEED=<n> reruns any single seed).
cargo test -q --offline --workspace

echo "=== runtime-smoke (real loopback UDP) ==="
# The real threaded runtime end to end: a 3-node NOOB cluster as OS
# threads + loopback sockets serves 1,000+ ops and a kill-one-node run;
# every history goes through the per-key linearizability checker
# (DESIGN.md §11). Release-built: wall-clock retries make debug too slow.
timeout 300 cargo test -q --offline --release --test real_cluster

echo "=== runtime-chaos (seeded storm on real sockets) ==="
# The crash–restart survivability gate (DESIGN.md §11): a WAL-backed
# 5-node cluster takes three seeded crash/restart hits under socket-
# level loss/duplication/delay; zero acknowledged writes may be lost and
# the combined history must linearize per key. CHAOS_SEED=<n> replays
# one schedule exactly. The nemesis fault counters and per-node recovery
# stats land next to the lint report for tooling.
timeout 600 cargo test --offline --release --test runtime_chaos -- --nocapture \
  2>&1 | tee target/runtime_chaos.log
grep -E '^(nemesis |plan seed=|crash node=|schedule )' target/runtime_chaos.log \
  > target/runtime_chaos_stats.txt || true
# A changed render must not leave the archive silently empty.
for needle in '^plan seed=' '^nemesis '; do
  if ! grep -q "$needle" target/runtime_chaos_stats.txt; then
    echo "runtime-chaos: archive lacks a '$needle' line" >&2
    exit 1
  fi
done
echo "runtime-chaos: stats archived in target/runtime_chaos_stats.txt"

echo "=== benchmark-smoke (perfbench builds and passes its checks) ==="
# BENCHMARK.json's package is its own workspace root and is compiled
# unmodified against this tree: a renamed pub item or registry name
# breaks it without any tier above noticing. The committed
# BENCHMARK.json must be exactly what the benchmark emits from its own
# workload and metric tables. Then every workload that file declares
# runs at --quick; every run checks its own output (all ops done, gets
# full-size, history linearizable) and exits non-zero on a failed check.
# Gate on the exit code only — --quick numbers are labelled
# non-comparable.
BENCH=(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --)
if ! "${BENCH[@]}" --emit-benchmark-json | diff -u BENCHMARK.json -; then
  echo "benchmark-smoke: BENCHMARK.json differs from benchmark --emit-benchmark-json" >&2
  exit 1
fi
WORKLOADS=$(sed -n 's/^ *{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)
if [ -z "$WORKLOADS" ]; then
  echo "benchmark-smoke: no workloads found in BENCHMARK.json" >&2
  exit 1
fi
for wl in $WORKLOADS; do
  timeout 300 "${BENCH[@]}" --workload "$wl" --quick
done

if [ "$RELEASE" = 1 ]; then
  echo "=== slow suites (release) ==="
  # --include-ignored adds the brute-force 756,756-schedule enumeration
  # that cross-checks the fast tier's DPOR classes schedule for schedule.
  cargo test -q --offline --release -p kv-core --test lock_interleavings -- --include-ignored
  cargo test -q --offline --release -p nice-sim
  cargo test -q --offline --release -p nice --test failures
  # The full seeded chaos matrix: 8 seeds x 4 cells, every history
  # checked for per-key linearizability (DESIGN.md "Chaos harness").
  cargo test -q --offline --release --test chaos -- --include-ignored
fi

echo "check.sh: all gates passed"
