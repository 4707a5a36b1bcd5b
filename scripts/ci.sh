#!/usr/bin/env bash
# Offline CI entry point — everything the GitHub workflow runs, runnable
# locally with no network access:
#
#   1. configure + build the default tree and run the full tier-1 ctest suite;
#   2. perf-smoke: run scripts/run_bench.sh --smoke, validate the
#      BENCH_kernel.json schema (including the coef_vs_aos crossing A/B
#      and its >=1.3x floor on the median pair ratio, and an absolute bound
#      on Delaunay allocations per insert), pin the machine-independent op
#      counters (dtfe.delaunay.walk_steps, dtfe.kernel.tetra_crossings)
#      against bench/perf_reference.json — a perf change that alters the
#      WORK done must update the reference intentionally — and fail when a
#      Delaunay health ratio (conflict / created cells per insert) exceeds
#      its upper bound there;
#   3. rebuild the decoder, transport, engine and CLI suites under
#      AddressSanitizer (DTFE_SANITIZE=address) and run them: snapshot
#      reader, result codec, frame parser and journal replay must turn
#      damaged bytes into a dtfe::Error with no invalid memory access;
#   4. rebuild under ThreadSanitizer (DTFE_SANITIZE=thread) and run the
#      concurrency-sensitive suites — the fault-injection, durable-execution,
#      and engine labels — against that build;
#   5. rebuild under UBSan (DTFE_SANITIZE=undefined) and run the geometry,
#      triangulation, march-table, FOF cell-key, result-codec, durable and
#      engine suites against that build.
#
# Step 3 runs before the --skip-tsan exit, so a TSan failure never hides an
# ASan one.
#
# usage: ci.sh [--skip-asan] [--skip-tsan] [--skip-perf] [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc)"
SKIP_ASAN=0
SKIP_TSAN=0
SKIP_PERF=0
while [ $# -gt 0 ]; do
  case "$1" in
    --skip-asan) SKIP_ASAN=1; shift ;;
    --skip-tsan) SKIP_TSAN=1; shift ;;
    --skip-perf) SKIP_PERF=1; shift ;;
    --jobs) JOBS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

echo "== lint: layering rules"
bash scripts/check_layering.sh

echo "== tier-1: configure + build (build/, $JOBS jobs)"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

echo "== tier-1: full ctest suite"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== engine: kernel/stage/batch contract suite"
ctest --test-dir build --output-on-failure -L engine

echo "== mp-smoke: socket transport (3 worker processes, one SIGKILLed)"
bash scripts/run_mp_smoke.sh build/apps/pdtfe 3

if [ "$SKIP_PERF" -eq 1 ]; then
  echo "== perf-smoke: skipped (--skip-perf)"
else
  echo "== perf-smoke: benchmark trajectory + pinned op counters"
  bash scripts/run_bench.sh --smoke --out build/BENCH_smoke.json
  python3 - <<'PY'
import json, sys

with open("build/BENCH_smoke.json") as f:
    doc = json.load(f)
with open("bench/perf_reference.json") as f:
    ref = json.load(f)

# Schema gate: a bench-script change must not silently break consumers.
for key in ("schema", "mode", "host", "micro_delaunay", "micro_kernels",
            "coef_vs_aos", "pipeline"):
    assert key in doc, f"BENCH_kernel.json missing top-level key {key!r}"
assert doc["schema"] == "pdtfe-bench-v3", doc["schema"]
for key in ("inserts_per_sec", "allocs_per_insert"):
    assert key in doc["micro_delaunay"], f"micro_delaunay missing {key!r}"
for key in ("crossings_per_sec_aos_scalar", "crossings_per_sec_coef_scalar",
            "speedup_coef_vs_aos", "pairs"):
    assert key in doc["coef_vs_aos"], f"coef_vs_aos missing {key!r}"
for key in ("wall_s", "checksum", "op_counters", "conflict_cells_per_insert",
            "cells_created_per_insert"):
    assert key in doc["pipeline"], f"pipeline missing {key!r}"

# The SoA coefficient crossing test must beat the pre-table AoS path
# outright: the median of the per-pair ratios, both forms timed in
# alternating passes in one process, so host speed swings cancel.
assert doc["coef_vs_aos"]["speedup_coef_vs_aos"] >= 1.3, \
    f"coefficient crossing speedup below 1.3x: {doc['coef_vs_aos']}"

# Insertion reuses its scratch (cell store, BFS buffers, cavity-edge map):
# allocations must stay a rounding error per insert.
md = doc["micro_delaunay"]
assert md["allocs_per_insert"] < 0.01, \
    f"Delaunay insertion allocates per insert: {md}"

# Pinned work counts: same fixture, same walk, same crossings — exactly.
got = doc["pipeline"]["op_counters"]
want = ref["op_counters"]
for name, expect in want.items():
    assert got.get(name) == expect, (
        f"{name}: got {got.get(name)}, reference {expect} — the amount of "
        "work changed; if intentional, regenerate bench/perf_reference.json")

# Delaunay health: cavity sizes above the bound mean the insertion order lost
# its random rounds (pure spatial order roughly doubles both ratios).
for name, bound in ref["health_upper_bounds"].items():
    value = doc["pipeline"][name]
    assert value <= bound, f"{name}: {value} above its bound {bound}"
print("perf-smoke: schema valid, op counters match the reference, "
      "health ratios within bounds")
PY
fi

ASAN_SUITES="durable_test transport_test engine_test extensions_test misc_test"
if [ "$SKIP_ASAN" -eq 1 ]; then
  echo "== asan: skipped (--skip-asan)"
else
  echo "== asan: configure + build (build-asan/, DTFE_SANITIZE=address)"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DDTFE_SANITIZE=address >/dev/null
  # shellcheck disable=SC2086  # the suite list splits on purpose
  cmake --build build-asan -j"$JOBS" --target $ASAN_SUITES

  echo "== asan: durable/transport/engine/extensions/misc suites"
  # durable_test replays damaged checkpoint journals; transport_test feeds
  # the frame parser and result codec corrupt bytes and drives socket-worker
  # runs of the pdtfe binary; extensions_test reads snapshots back through
  # the engine; misc_test covers the CLI parser. Any ASan report aborts the
  # binary with a nonzero exit.
  for t in $ASAN_SUITES; do
    "build-asan/tests/$t"
  done
fi

if [ "$SKIP_TSAN" -eq 1 ]; then
  echo "== sanitizers (tsan + ubsan): skipped (--skip-tsan)"
  exit 0
fi

echo "== tsan: configure + build (build-thread/, DTFE_SANITIZE=thread)"
cmake -B build-thread -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=thread >/dev/null
cmake --build build-thread -j"$JOBS"

echo "== tsan: fault + durable + engine labels"
# TSAN_OPTIONS: fail the job on any report; second_deadlock_stack aids triage.
# The engine label carries the thread-budget determinism tests, so this is
# also the data-race gate for the rank threads. libgomp's uninstrumented
# barriers need scripts/tsan.supp (see its header).
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 suppressions=$PWD/scripts/tsan.supp" \
    ctest --test-dir build-thread --output-on-failure -L 'fault|durable|engine'

echo "== ubsan: configure + build (build-ubsan/, DTFE_SANITIZE=undefined)"
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDTFE_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"

echo "== ubsan: geometry/delaunay/kernel/nbody/codec/durable/engine suites"
# UBSan is built with -fno-sanitize-recover=all, so any undefined operation
# (signed overflow in the walk counters, bad enum cast in the codec) aborts
# the test. march_tables_test drives the coefficient crossing test over
# degenerate geometry; triangulation_test drives the BRIO round hashing (bit
# casts of coordinates) and the cavity-edge map's hash indexing over
# cospherical lattices and duplicates; durable_test replays damaged
# checkpoint journals.
# nbody_test drives the FOF cell-key and neighbour-row index arithmetic over
# adversarial placements; transport_test round-trips the result codec,
# including empty vectors. The targeted binaries run directly (ctest
# registers per-CASE names, not binary names); the engine label covers
# engine_test + threads_test.
for t in march_tables_test ray_tetra_test kernels_test predicates_test \
         triangulation_test nbody_test transport_test durable_test; do
  "build-ubsan/tests/$t"
done
ctest --test-dir build-ubsan --output-on-failure -L engine

echo "== ci: all green"
