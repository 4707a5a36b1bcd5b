#!/usr/bin/env bash
# Persistent benchmark trajectory: one command that measures the perf-critical
# paths and writes a schema-stable BENCH_kernel.json at the repo root, so the
# numbers ride along with the code and regressions show up in review diffs.
#
# Three measurements:
#   (1) micro_delaunay insertion — inserts/sec and allocations per insert
#       (BM_DelaunayInsert; CI bounds the allocations);
#   (2) micro_kernels render throughput (marching + walking) and the
#       coefficient-vs-AoS crossing-test A/B (both forms timed in
#       alternating passes in one process; CI gates the median pair ratio);
#   (3) one end-to-end `pdtfe pipeline` run on a generated snapshot,
#       recording its wall time and grid checksum, the machine-independent
#       op counters (dtfe.delaunay.walk_steps, dtfe.kernel.tetra_crossings)
#       that CI pins, and the Delaunay health ratios (conflict / created
#       cells per insert) that CI bounds.
#
# usage: run_bench.sh [--smoke] [--out FILE]
#   --smoke   small fixture + short benchmark reps (the CI perf-smoke job)
#   --out     output path (default: BENCH_kernel.json at the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
OUT="BENCH_kernel.json"
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown flag $1" >&2; exit 2 ;;
  esac
done

BUILD=build
[ -f "$BUILD/CMakeCache.txt" ] || cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" --target pdtfe micro_delaunay micro_kernels \
      -j"$(nproc)" >/dev/null
PDTFE="$BUILD/apps/pdtfe"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if [ "$SMOKE" = 1 ]; then
  MODE=smoke N=40000 FIELDS=6 GRID=24 RANKS=2 MIN_TIME=0.05
else
  MODE=full N=120000 FIELDS=16 GRID=32 RANKS=2 MIN_TIME=0.2
fi

echo "== micro_delaunay (insertion throughput + allocations)"
"$BUILD/bench/micro_delaunay" \
    --benchmark_filter='BM_DelaunayInsert/' \
    --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$TMP/delaunay.json" 2>/dev/null

echo "== micro_kernels (render throughput + crossing-test A/B)"
"$BUILD/bench/micro_kernels" \
    --benchmark_filter='BM_MarchingRender|BM_WalkingRender|BM_VerticalCrossing' \
    --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
    > "$TMP/kernels.json" 2>/dev/null

echo "== end-to-end pipeline"
SNAP="$TMP/snap.bin"
"$PDTFE" generate --out "$SNAP" --n "$N" --box 16 --seed 3 >/dev/null
"$PDTFE" pipeline --in "$SNAP" --ranks "$RANKS" --fields "$FIELDS" \
    --grid "$GRID" --length 3 \
    --report "$TMP/pipeline" --metrics-out "$TMP/metrics.json" >/dev/null

python3 - "$TMP" "$OUT" "$MODE" "$N" "$FIELDS" "$RANKS" <<'PY'
import json, os, sys

tmp, out, mode = sys.argv[1], sys.argv[2], sys.argv[3]
n, fields, ranks = (int(v) for v in sys.argv[4:7])

def load(name):
    with open(os.path.join(tmp, name)) as f:
        return json.load(f)

dl = {b["name"]: b for b in load("delaunay.json")["benchmarks"]}
insert = dl["BM_DelaunayInsert/20000"]

kernels = {}
pairs = None
for b in load("kernels.json")["benchmarks"]:
    if b["name"] == "BM_VerticalCrossingPairs":
        pairs = b
        continue
    kernels[b["name"]] = {
        "real_time_ms": round(b["real_time"], 3)
        if b["time_unit"] == "ms" else round(b["real_time"] / 1e6, 3),
        "items_per_second": b.get("items_per_second"),
    }

# Crossing-test A/B: the SoA coefficient test the march runs vs the
# pre-table AoS test (both classify identical crossings), timed in
# alternating passes in one process; the speedup is the median of the
# per-pair time ratios (bench/micro_kernels.cpp). CI floors it at 1.3x.
coef_vs_aos = {
    "crossings_per_sec_aos_scalar": round(pairs["aos_per_s"]),
    "crossings_per_sec_coef_scalar": round(pairs["coef_per_s"]),
    "speedup_coef_vs_aos": round(pairs["speedup_median"], 3),
    "pairs": int(pairs["pairs"]),
}

summary = load("pipeline.json")["summary"]
counters = load("metrics.json")["counters"]
inserted = counters["dtfe.delaunay.points_inserted"]

doc = {
    "schema": "pdtfe-bench-v3",
    "mode": mode,
    "host": {"cores": os.cpu_count(), "platform": os.uname().sysname},
    "micro_delaunay": {
        "inserts_per_sec": round(insert["items_per_second"]),
        "allocs_per_insert": round(insert["allocs_per_insert"], 6),
    },
    "micro_kernels": kernels,
    "coef_vs_aos": coef_vs_aos,
    "pipeline": {
        "particles": n,
        "fields": fields,
        "ranks": ranks,
        "wall_s": round(summary["wall_s"], 4),
        "checksum": summary["grid_checksum_total"],
        "op_counters": {
            "dtfe.delaunay.walk_steps": counters["dtfe.delaunay.walk_steps"],
            "dtfe.kernel.tetra_crossings":
                counters["dtfe.kernel.tetra_crossings"],
        },
        # Delaunay health ratios, per inserted (unique) point: cells found in
        # conflict and cells created. Random-order Bowyer-Watson in 3D sits
        # near 20 / 27; a spatially sorted order without random rounds
        # roughly doubles both. CI bounds them (bench/perf_reference.json).
        "conflict_cells_per_insert": round(
            counters["dtfe.delaunay.conflict_cells"] / inserted, 3),
        "cells_created_per_insert": round(
            counters["dtfe.delaunay.cells_created"] / inserted, 3),
    },
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out}: pipeline wall {doc['pipeline']['wall_s']} s, "
      f"coef/AoS crossing speedup {coef_vs_aos['speedup_coef_vs_aos']}x")
PY
