#!/usr/bin/env python3
"""pdtfe benchmark: process-wall workloads plus a traced per-layer replay.

    python3 perfbench/run.py --workload pipeline-halo --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check          # small inputs, under a minute
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-references   # re-pin references.json

Run from the repository root. Every run builds the pdtfe CLI and the replay
driver (perfbench/trace_driver.cpp) from source into .bench_build/, makes
its snapshots with `pdtfe generate` from --seed (not timed), then:

  --trace 0  times the workload's `pdtfe` command from outside on the
             run's K snapshots, in rounds for --seconds: process wall,
             set-up time, CPU seconds and peak RSS, each the median over
             all of the run's samples.
  --trace 1  runs the CLI once with --metrics-out (and --report) for the op
             counters, then the replay driver, instrumented and plain in
             turn, for the per-layer spans; the replay's op counters must
             equal the CLI's.

Every CLI and driver output is checked (all fields completed, checksum
against the pinned reference, grid mass). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. perfbench/README.md
describes the metrics, the workloads and which layer should move which
end-to-end number.
"""

import argparse
import json
import os
import pty
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCES_PATH = HERE / "references.json"
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_build" / "work"
PDTFE = BUILD_DIR / "pdtfe" / "apps" / "pdtfe"
TRACE_DRIVER = BUILD_DIR / "pdtfe_trace"
CORES = len(os.sched_getaffinity(0))
RUN_SECONDS = 25  # BENCHMARK.json run_seconds: the --seconds default

# --seed n runs on input seeds 1 + (n * K + j) % SEED_POOL, j < K (K is
# Workload.inputs); references.json pins the outputs of every pool seed.
SEED_POOL = 32
# Pipeline: relative tolerance on the total grid checksum. Catches any wrong
# field, admits the ULP-level moves of an insertion-order change.
CHECKSUM_RTOL = 1e-8
# Render: the 8-bit log map's pixel sum may drift by this many grey levels
# in total (a pixel on a quantization edge flipping under ULP moves).
PGM_SUM_ATOL = 8
# Render: grid mass within this fraction of the particle mass.
MASS_FRAC_TOL = 0.01
# A process that outlives this is killed and counts as failed.
PROCESS_TIMEOUT_S = 150.0
PROBES_PER_SAMPLE = 5

# Each end-to-end metric: (name, unit, better, bound). The bound is the share
# of the parent's median by which the metric may get worse. On a shared
# 4-core host the run-to-run spread (quartile distance over median, ten
# seeds) of the times is 2-7% while the host is steady but reaches 15-30%
# when the host's own speed shifts (perfbench/README.md), so the time
# bounds take the largest value allowed.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Each per-layer metric: (name, unit, better). Layers are named by repo
# module.
PER_LAYER = [
    ("nbody.snapshot_io.read_s", "s", "lower"),
    ("nbody.snapshot_io.read_mb_per_s", "MB/s", "higher"),
    ("nbody.fof.s", "s", "lower"),
    ("nbody.fof.groups", "count", "higher"),
    ("engine.run_batch_s", "s", "lower"),
    ("engine.busy_max_s", "s", "lower"),
    ("engine.busy_mean_s", "s", "lower"),
    ("engine.imbalance", "ratio", "lower"),
    ("framework.partition_s", "s", "lower"),
    ("framework.model_s", "s", "lower"),
    ("framework.work_share_s", "s", "lower"),
    ("delaunay.build_s", "s", "lower"),
    ("delaunay.item_build_max_s", "s", "lower"),
    ("delaunay.inserts_per_s", "1/s", "higher"),
    ("delaunay.conflict_cells_per_insert", "cells/insert", "lower"),
    ("delaunay.cells_created_per_insert", "cells/insert", "lower"),
    ("delaunay.walk_steps_per_locate", "steps/locate", "lower"),
    ("dtfe.density_s", "s", "lower"),
    ("delaunay.hull_s", "s", "lower"),
    ("dtfe.geom_table_s", "s", "lower"),
    ("dtfe.kernel.render_s", "s", "lower"),
    ("dtfe.kernel.crossings_per_s", "1/s", "higher"),
    ("dtfe.kernel.crossings_per_ray", "tetra/ray", "lower"),
    ("dtfe.kernel.failed_cells", "count", "lower"),
    ("dtfe.kernel.perturb_restarts", "count", "lower"),
    ("output.write_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Replay spans (trace_driver.cpp) behind each layer-seconds metric.
SPAN_OF = {
    "nbody.snapshot_io.read_s": "read_snapshot",
    "nbody.fof.s": "find_fof_groups",
    "engine.run_batch_s": "Engine::run_batch",
    "delaunay.build_s": "Triangulation::Triangulation",
    "dtfe.density_s": "DensityField::DensityField",
    "delaunay.hull_s": "HullProjection::HullProjection",
    "dtfe.geom_table_s": "TetraGeomTable::TetraGeomTable",
    "dtfe.kernel.render_s": "FieldKernel::render",
}
OUTPUT_SPANS = ("RunReport::write", "write_log_pgm")

# Replay totals that must equal the CLI's --metrics-out counters.
FIDELITY_COUNTERS = (
    "dtfe.delaunay.points_inserted",
    "dtfe.delaunay.cells_created",
    "dtfe.kernel.tetra_crossings",
)


@dataclass
class Workload:
    name: str
    why: str
    kind: str  # pdtfe generate --kind
    n: int
    box: float
    mode: str  # "pipeline" or "render"
    args: list
    fields: int  # fields one command reconstructs
    inputs: int  # snapshots per --trace 0 run (input seed variance)
    largest_layer: str  # the layer the traced run should find largest


WORKLOADS = [
    Workload(
        "pipeline-halo",
        "ROADMAP fixture and north-star number: FOF request planning plus "
        "per-item Delaunay on ~7k-point clustered cubes, so FOF and "
        "insertion-order fixes show here",
        "halo", 120000, 16.0, "pipeline",
        ["--ranks", "2", "--fields", "16", "--grid", "32", "--length", "3"],
        16, 5, "nbody.fof"),
    Workload(
        "render-wide",
        "marching kernel dominates: long rays through the whole box onto a "
        "2048^2 map, no FOF and no engine stage, so kernel route changes "
        "show here",
        "halo", 40000, 16.0, "render",
        ["--method", "march", "--grid", "2048"],
        1, 4, "dtfe.kernel"),
    Workload(
        "render-uniform",
        "Delaunay on one unclustered 200k-point cube beyond the last-level "
        "cache: an insertion order that wins on clustered cubes but walks "
        "more on uniform input shows here",
        "uniform", 200000, 16.0, "render",
        ["--method", "march", "--grid", "64"],
        1, 7, "delaunay.build"),
]

# --self-check shrinks every workload to these sizes (about a minute in
# total; large enough that the grid-mass check still holds).
SELF_CHECK_SIZES = {
    "pipeline-halo": (12000, ["--ranks", "2", "--fields", "4", "--grid",
                              "16", "--length", "3"], 4),
    "render-wide": (20000, ["--method", "march", "--grid", "1024"], 1),
    "render-uniform": (100000, ["--method", "march", "--grid", "64"], 1),
}


class BenchError(Exception):
    """A failure that makes the run unusable: no result line is printed."""


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    lines: list = field(default_factory=list)  # (seconds since exec, text)

    @property
    def text(self):
        return "\n".join(line for _, line in self.lines)


def run_process(argv, env=None, timeout=PROCESS_TIMEOUT_S):
    """Runs argv to exit with its output on a pseudo-terminal (so stdio is
    line-buffered and each line is timestamped as it is written). Returns
    wall, user+system CPU and peak RSS of the process."""
    master, slave = pty.openpty()
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in argv], stdin=subprocess.DEVNULL,
                            stdout=slave, stderr=slave, env=env,
                            cwd=WORK_DIR)
    os.close(slave)
    lines, buf = [], b""
    try:
        while True:
            left = timeout - (time.perf_counter() - t0)
            if left <= 0:
                proc.kill()
                break
            ready, _, _ = select.select([master], [], [], left)
            if not ready:
                continue
            try:
                chunk = os.read(master, 65536)
            except OSError:  # EIO: every writer has closed the terminal
                chunk = b""
            if not chunk:
                break
            now = time.perf_counter() - t0
            buf += chunk
            *done, buf = buf.split(b"\n")
            lines += [(now, d.decode(errors="replace").rstrip("\r"))
                      for d in done]
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        os.close(master)
    if buf:
        lines.append((wall, buf.decode(errors="replace").rstrip("\r")))
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6, lines)


def run_tool(argv, what):
    """Runs a non-timed helper command; raises BenchError on failure."""
    p = run_process(argv)
    if p.rc != 0:
        raise BenchError(f"{what} failed (exit {p.rc}):\n{p.text[-4000:]}")
    return p


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no pdtfe sources in {ROOT}: run from a checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_tool(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_tool(["cmake", "--build", BUILD_DIR, "-j", str(CORES), "--target",
              "pdtfe", "pdtfe_trace"], "cmake build")


def host_facts():
    facts = {"cores": CORES, "build_type": "Release"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches.append(f"L{level}{'d' if kind == 'Data' else ''}={size}")
    facts["caches"] = " ".join(caches)
    try:
        cache = (BUILD_DIR / "CMakeCache.txt").read_text()
        cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if cxx:
            out = subprocess.run([cxx.group(1), "--version"],
                                 capture_output=True, text=True).stdout
            facts["compiler"] = out.splitlines()[0] if out else cxx.group(1)
    except OSError:
        pass
    return facts


def workload_env():
    # Every workload caps its total threads at the core count: OpenMP teams
    # default to it, and the pipeline splits it across its ranks.
    return dict(os.environ, OMP_NUM_THREADS=str(CORES))


def snapshot_for(w, input_seed):
    path = WORK_DIR / f"{w.name}-{input_seed}.bin"
    run_tool([PDTFE, "generate", "--out", path, "--kind", w.kind, "--n",
              w.n, "--box", w.box, "--seed", input_seed], "pdtfe generate")
    return path


def cli_command(w, snap, out_pgm):
    if w.mode == "pipeline":
        return [PDTFE, "pipeline", "--in", snap] + w.args
    return [PDTFE, "render", "--in", snap, "--out", out_pgm] + w.args


def run_cli(w, snap, extra=()):
    """Runs the workload's command on one snapshot; returns the process and
    the map path (removed first, so a stale map never passes a check)."""
    out_pgm = WORK_DIR / f"{w.name}.pgm"
    out_pgm.unlink(missing_ok=True)
    p = run_process(cli_command(w, snap, out_pgm) + list(extra),
                    workload_env())
    return p, out_pgm


def pgm_sum(path):
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise ValueError(f"{path} is not a binary PGM")
    pixels = data[m.end():]
    if len(pixels) != int(m.group(1)) * int(m.group(2)):
        raise ValueError(f"{path} has {len(pixels)} pixels, header says "
                         f"{m.group(1).decode()}x{m.group(2).decode()}")
    return sum(pixels)


def check_reference(w, ref, checksum=None, pgm=None):
    """Problems found comparing outputs with the pinned reference."""
    if ref is None:
        return []
    if w.mode == "pipeline":
        rel = abs(checksum - ref["checksum"]) / abs(ref["checksum"])
        if rel > CHECKSUM_RTOL:
            return [f"grid checksum {checksum:.10e} vs reference "
                    f"{ref['checksum']:.10e} (rel {rel:.2e} > "
                    f"{CHECKSUM_RTOL:.0e})"]
        return []
    if abs(pgm - ref["pgm_sum"]) > PGM_SUM_ATOL:
        return [f"map pixel sum {pgm} vs reference {ref['pgm_sum']} "
                f"(tolerance {PGM_SUM_ATOL})"]
    return []


def check_mass(grid_mass, particle_mass):
    frac = abs(grid_mass / particle_mass - 1.0)
    if frac > MASS_FRAC_TOL:
        return [f"grid mass {grid_mass:.6g} is {100 * frac:.2f}% off the "
                f"particle mass {particle_mass:.6g} (limit "
                f"{100 * MASS_FRAC_TOL:.1f}%)"]
    return []


def check_cli(w, p, ref, out_pgm):
    """Checks one CLI process. Returns (failed fields, problems, values)."""
    if p.rc != 0:
        return w.fields, [f"exit code {p.rc}: {p.text[-500:]}"], {}
    text = p.text
    problems, values = [], {}
    if w.mode == "pipeline":
        m = re.search(r"fields completed: (\d+)/(\d+) \(failed (\d+)", text)
        c = re.search(r"grid checksum total: (\S+)", text)
        if not m or not c:
            return w.fields, ["pipeline summary lines missing"], {}
        done, asked, contained = (int(g) for g in m.groups())
        values["checksum"] = float(c.group(1))
        if asked != w.fields:
            problems.append(f"{asked} fields requested, expected {w.fields}")
        if done != asked or contained:
            problems.append(f"{done}/{asked} fields completed, {contained} "
                            "contained failures")
        problems += check_reference(w, ref, checksum=values["checksum"])
        failed = max(0, w.fields - done) + contained
    else:
        m = re.search(r"grid mass (\S+) of (\S+)", text)
        if not m or not out_pgm.is_file():
            return w.fields, ["render output missing"], {}
        values["grid_mass"] = float(m.group(1))
        values["particle_mass"] = float(m.group(2))
        try:
            values["pgm_sum"] = pgm_sum(out_pgm)
        except ValueError as e:
            return w.fields, [str(e)], {}
        problems += check_mass(values["grid_mass"], values["particle_mass"])
        problems += check_reference(w, ref, pgm=values["pgm_sum"])
        failed = 0
    return (w.fields if problems else failed), problems, values


def setup_seconds(p):
    """Pipeline set-up: exec until the request-planning line appears (the
    snapshot is read and FOF has planned the requests; reconstruction
    starts next)."""
    for t, line in p.lines:
        if "field requests on FOF objects" in line:
            return t
    raise BenchError("pdtfe pipeline printed no request-planning line")


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(values, unit):
    """Median, sample count and the highest percentile with at least ten
    samples beyond it."""
    n = len(values)
    note = f"{n} samples"
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            note += f", p{pct} {q:.4f} {unit}"
            break
    else:
        note += ", no percentile (fewer than 10 samples beyond p90)"
    return note


def print_metrics(metrics, notes):
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']:13s} "
              f"{notes.get(name, '')}")


def timed_run(w, inputs, seconds):
    """--trace 0: rounds over the run's inputs, one command per input per
    round; another round starts only while it fits in `seconds`."""
    per_input = [{name: [] for name, *_ in END_TO_END} for _ in inputs]
    attempted = failed = 0
    problems = []
    for _, snap, _ in inputs:
        run_tool([PDTFE, "info", "--in", snap], "pdtfe info")  # warm caches
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for (_, snap, ref), series in zip(inputs, per_input):
            if w.mode == "render":
                # Render set-up is the snapshot read: time processes that
                # only read it (and deposit it on a 1x1 map).
                probe = [PDTFE, "render", "--in", snap, "--out",
                         WORK_DIR / f"{w.name}-probe.pgm", "--method", "cic",
                         "--grid", "1"]
                for _ in range(PROBES_PER_SAMPLE):
                    series["setup_s"].append(
                        run_tool(probe, "set-up probe").wall_s)
            p, out_pgm = run_cli(w, snap)
            f, probs, _ = check_cli(w, p, ref, out_pgm)
            attempted += w.fields
            failed += f
            problems += probs
            if p.rc == 0 and w.mode == "pipeline":
                series["setup_s"].append(setup_seconds(p))
            series["wall_s"].append(p.wall_s)
            series["cpu_s"].append(p.cpu_s)
            series["peak_rss_mb"].append(p.rss_mb)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    # The median over all samples: a process the host stalls (a 10-15%
    # spike is common on a shared machine) does not move it.
    metrics, notes = {}, {}
    for name, unit, _, _ in END_TO_END:
        pooled = [v for s in per_input for v in s[name]]
        metrics[name] = {"value": median(pooled), "unit": unit}
        notes[name] = f"median; {summarize(pooled, unit)}"
    return metrics, notes, attempted, failed, problems, per_input


def driver_command(w, snap, instrument, tag):
    mode_args = w.args
    extra = ["--instrument", instrument, "--summary",
             WORK_DIR / f"{w.name}-{tag}.summary.json"]
    if instrument:
        extra += ["--spans-out", WORK_DIR / f"{w.name}-trace.json"]
    if w.mode == "pipeline":
        extra += ["--report-out", WORK_DIR / f"{w.name}-{tag}-report"]
    else:
        mode_args = [a for a in w.args if a not in ("--method", "march")]
        extra += ["--out", WORK_DIR / f"{w.name}-{tag}.pgm"]
    return [TRACE_DRIVER, w.mode, "--in", snap] + mode_args + extra


def check_driver(w, s, ref, cli_counters, tag):
    """Checks one replay-driver run against the references and the CLI."""
    problems = []
    if w.mode == "pipeline":
        if s["requests"] != w.fields or s["fields_completed"] != w.fields \
                or s["fields_failed"]:
            problems.append(f"run_batch completed {s['fields_completed']:g}"
                            f"/{s['requests']:g}, failed "
                            f"{s['fields_failed']:g}")
        problems += check_reference(w, ref, checksum=s["batch_checksum"])
        rel = abs(s["replay_checksum"] - s["batch_checksum"]) / max(
            abs(s["batch_checksum"]), 1e-300)
        if rel > CHECKSUM_RTOL:
            problems.append(f"replay checksum {s['replay_checksum']:.10e} vs"
                            f" run_batch {s['batch_checksum']:.10e}")
    else:
        problems += check_mass(s["grid_mass"], s["particle_mass_total"])
        try:
            problems += check_reference(
                w, ref, pgm=pgm_sum(WORK_DIR / f"{w.name}-{tag}.pgm"))
        except (OSError, ValueError) as e:
            problems.append(f"replay map: {e}")
    if s["instrument"]:
        for name in FIDELITY_COUNTERS:
            got, want = s["counters"][name], cli_counters.get(name, 0.0)
            if got != want:
                problems.append(f"replay {name} = {got:g}, CLI counted "
                                f"{want:g}: the replay measures other work")
    return problems


def traced_run(w, snap, ref, seconds):
    """--trace 1: CLI counters, then instrumented/plain replay pairs."""
    metrics_json = WORK_DIR / f"{w.name}-metrics.json"
    report = WORK_DIR / f"{w.name}-report"
    extra = ["--metrics-out", metrics_json]
    if w.mode == "pipeline":
        extra += ["--report", report]
    for stale in (metrics_json, Path(f"{report}.json")):
        stale.unlink(missing_ok=True)
    p, out_pgm = run_cli(w, snap, extra)
    failed, problems, _ = check_cli(w, p, ref, out_pgm)
    attempted = w.fields
    if p.rc != 0:
        raise BenchError(f"metrics run failed:\n{p.text[-2000:]}")
    counters = json.loads(metrics_json.read_text())["counters"]
    rows = (json.loads(Path(f"{report}.json").read_text())["ranks"]
            if w.mode == "pipeline" else [])

    # Instrumented/plain pairs; another pair starts only while it fits.
    runs = {1: [], 0: []}  # instrument flag -> [(process wall, summary)]
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for instrument in (1, 0):
            tag = "instrumented" if instrument else "plain"
            summary_path = WORK_DIR / f"{w.name}-{tag}.summary.json"
            summary_path.unlink(missing_ok=True)
            d = run_process(driver_command(w, snap, instrument, tag),
                            workload_env())
            if d.rc != 0:
                raise BenchError(f"replay driver failed:\n{d.text[-2000:]}")
            s = json.loads(summary_path.read_text())
            probs = check_driver(w, s, ref, counters, tag)
            attempted += w.fields
            failed += w.fields if probs else 0
            problems += probs
            runs[instrument].append((d.wall_s, s))
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break

    inst = [s for _, s in runs[1]]

    def span_total(name, key="total_s"):
        return median([s["spans"].get(name, {}).get(key, 0.0) for s in inst])

    def ratio(num, den):
        return num / den if den else 0.0

    v = {name: span_total(span) for name, span in SPAN_OF.items()}
    snap_mb = snap.stat().st_size / 1e6
    v["nbody.snapshot_io.read_mb_per_s"] = ratio(
        snap_mb, v["nbody.snapshot_io.read_s"])
    v["nbody.fof.groups"] = median([s.get("fof_groups", 0.0) for s in inst])
    busy = [r["total_s"] for r in rows]
    v["engine.busy_max_s"] = max(busy, default=0.0)
    v["engine.busy_mean_s"] = statistics.fmean(busy) if busy else 0.0
    v["engine.imbalance"] = ratio(v["engine.busy_max_s"],
                                  v["engine.busy_mean_s"])
    for phase in ("partition", "model", "work_share"):
        v[f"framework.{phase}_s"] = max((r[f"{phase}_s"] for r in rows),
                                        default=0.0)
    rc = inst[0]["counters"]  # replay counters, checked equal to the CLI's
    v["delaunay.item_build_max_s"] = span_total(
        "Triangulation::Triangulation", "max_s")
    v["delaunay.inserts_per_s"] = ratio(rc["dtfe.delaunay.points_inserted"],
                                        v["delaunay.build_s"])
    c = counters
    v["delaunay.conflict_cells_per_insert"] = ratio(
        c.get("dtfe.delaunay.conflict_cells", 0.0),
        c.get("dtfe.delaunay.points_inserted", 0.0))
    v["delaunay.cells_created_per_insert"] = ratio(
        c.get("dtfe.delaunay.cells_created", 0.0),
        c.get("dtfe.delaunay.points_inserted", 0.0))
    v["delaunay.walk_steps_per_locate"] = ratio(
        c.get("dtfe.delaunay.walk_steps", 0.0),
        c.get("dtfe.delaunay.locates", 0.0))
    v["dtfe.kernel.crossings_per_s"] = ratio(rc["dtfe.kernel.tetra_crossings"],
                                             v["dtfe.kernel.render_s"])
    v["dtfe.kernel.crossings_per_ray"] = ratio(
        c.get("dtfe.kernel.tetra_crossings", 0.0),
        c.get("dtfe.kernel.rays_integrated", 0.0))
    v["dtfe.kernel.failed_cells"] = c.get("dtfe.kernel.failed_cells", 0.0)
    v["dtfe.kernel.perturb_restarts"] = c.get("dtfe.kernel.perturb_restarts",
                                              0.0)
    v["output.write_s"] = sum(span_total(n) for n in OUTPUT_SPANS)
    v["trace.coverage"] = median([ratio(s["top_level_s"], s["wall_s"])
                                  for s in inst])
    v["trace.overhead_frac"] = ratio(
        median([t for t, _ in runs[1]]), median([t for t, _ in runs[0]])) - 1

    metrics = {name: {"value": v[name], "unit": unit}
               for name, unit, _ in PER_LAYER}
    notes = {name: f"median of {len(inst)} instrumented replay(s)"
             for name in SPAN_OF}
    for name in ("delaunay.conflict_cells_per_insert",
                 "delaunay.cells_created_per_insert",
                 "delaunay.walk_steps_per_locate",
                 "dtfe.kernel.crossings_per_ray", "dtfe.kernel.failed_cells",
                 "dtfe.kernel.perturb_restarts"):
        notes[name] = "CLI --metrics-out counters (exact, repeatable)"
    for name in ("engine.busy_max_s", "engine.busy_mean_s",
                 "framework.partition_s", "framework.model_s",
                 "framework.work_share_s"):
        notes[name] = "CLI --report rank rows" if rows else "no engine stage"

    # Layers on the process's own path. In the pipeline the Delaunay, tables
    # and kernel run inside Engine::run_batch; their replay is serial, so
    # they are compared as part of it.
    layers = {
        "nbody.snapshot_io": v["nbody.snapshot_io.read_s"],
        "output": v["output.write_s"],
    }
    if w.mode == "pipeline":
        layers["nbody.fof"] = v["nbody.fof.s"]
        layers["engine.run_batch"] = v["engine.run_batch_s"]
    else:
        layers["delaunay.build"] = v["delaunay.build_s"]
        layers["dtfe.tables"] = (v["dtfe.density_s"] + v["delaunay.hull_s"]
                                 + v["dtfe.geom_table_s"])
        layers["dtfe.kernel"] = v["dtfe.kernel.render_s"]
    largest = max(layers, key=layers.get)
    verdict = "confirmed" if largest == w.largest_layer else "NOT confirmed"
    same = all(rc[n] == counters.get(n) for n in FIDELITY_COUNTERS)
    fidelity = ", ".join(f"{n.split('.')[-1]} {rc[n]:.0f}"
                         for n in FIDELITY_COUNTERS)
    info = [f"largest layer: {largest} ({layers[largest]:.3f} s); "
            f"workload reason expects {w.largest_layer}: {verdict}",
            f"replay counters {'equal' if same else 'DIFFER FROM'} the "
            f"CLI's: {fidelity}",
            f"trace (Chrome trace-event JSON): "
            f"{WORK_DIR / (w.name + '-trace.json')}"]
    return metrics, notes, attempted, failed, problems, info


def load_references(w):
    try:
        refs = json.loads(REFERENCES_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {REFERENCES_PATH}: {e}")
    return refs["workloads"].get(w.name, {})


def bench(w, seed, seconds, trace, self_check=False):
    """One run of one workload; returns the result object."""
    refs = {} if self_check else load_references(w)
    inputs = []  # (input seed, snapshot, reference)
    for j in range(1 if trace else w.inputs):
        input_seed = 1 + (seed * w.inputs + j) % SEED_POOL
        ref = refs.get(str(input_seed))
        if ref is None and not self_check:
            raise BenchError(f"no reference for {w.name} input seed "
                             f"{input_seed} in {REFERENCES_PATH.name}")
        inputs.append((input_seed, snapshot_for(w, input_seed), ref))
    print(f"workload {w.name}: {w.why}")
    print(f"  inputs: pdtfe generate --kind {w.kind} --n {w.n} --box "
          f"{w.box:g} --seed {{{','.join(str(i) for i, _, _ in inputs)}}} "
          f"(from --seed {seed})")
    print(f"  command: pdtfe "
          f"{' '.join(map(str, cli_command(w, 'SNAP', 'MAP')[1:]))}")
    facts = host_facts()
    print("  host: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    info = []
    if trace:
        _, snap, ref = inputs[0]
        metrics, notes, attempted, failed, problems, info = traced_run(
            w, snap, ref, seconds)
        series = []
    else:
        metrics, notes, attempted, failed, problems, series = timed_run(
            w, inputs, seconds)
    print_metrics(metrics, notes)
    print(f"  {'failed_frac':38s} {failed / attempted:>14.6g} {'fields':13s} "
          f"{failed} of {attempted} attempted fields")
    for line in info:
        print(f"  {line}")
    if self_check:
        print("  reference check skipped (self-check sizes have none)")
    for prob in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {prob}")
    correct = not problems
    (WORK_DIR / f"{w.name}-result.json").write_text(json.dumps({
        "workload": w.name, "why": w.why, "seed": seed,
        "input_seeds": [i for i, _, _ in inputs], "trace": trace,
        "host": facts,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "samples": series}, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def self_check():
    """Tiny inputs through both modes of every workload; checks that every
    metric BENCHMARK.json names is emitted with its unit and that every
    workload's reason is written beside it."""
    problems = []
    try:
        on_disk = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH}: {e}")
    if on_disk != spec():
        problems.append("BENCHMARK.json differs from run.py's tables "
                        "(regenerate with --write-spec)")
    whys = {w["name"]: w.get("why", "") for w in on_disk.get("workloads", [])}
    for w in WORKLOADS:
        if not whys.get(w.name) or whys[w.name] != w.why:
            problems.append(f"workload {w.name} has no matching reason")
    build()
    for w in WORKLOADS:
        n, args, fields = SELF_CHECK_SIZES[w.name]
        small = Workload(w.name, w.why, w.kind, n, w.box, w.mode, args,
                         fields, 2, w.largest_layer)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(small, 0, 0.1, trace, self_check=True)
            if not result["correct"]:
                problems.append(f"{w.name} --trace {trace}: checks failed")
            want = {m["name"]: m["unit"] for m in on_disk.get(key, [])}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w.name} --trace {trace}: emitted {got} "
                                f"but BENCHMARK.json names {want}")
    for prob in problems:
        print(f"self-check FAILED: {prob}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_references():
    """Runs every workload once per pool seed and pins its outputs."""
    build()
    refs = {"seed_pool": SEED_POOL, "workloads": {}}
    for w in WORKLOADS:
        table = refs["workloads"][w.name] = {}
        for input_seed in range(1, SEED_POOL + 1):
            snap = snapshot_for(w, input_seed)
            p, out_pgm = run_cli(w, snap)
            _, problems, values = check_cli(w, p, None, out_pgm)
            if problems:
                raise BenchError(f"{w.name} seed {input_seed}: {problems}")
            if w.mode == "pipeline":
                table[str(input_seed)] = {"checksum": values["checksum"]}
            else:
                table[str(input_seed)] = {
                    "pgm_sum": values["pgm_sum"],
                    "mass_frac": values["grid_mass"] / values["particle_mass"]
                    - 1.0}
            print(w.name, input_seed, table[str(input_seed)], flush=True)
    REFERENCES_PATH.write_text(json.dumps(refs, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    a = ap.parse_args()
    try:
        if a.write_spec:
            SPEC_PATH.write_text(json.dumps(spec(), indent=2) + "\n")
            return 0
        if a.self_check:
            return self_check()
        if a.record_references:
            record_references()
            return 0
        if a.workload is None:
            ap.error("--workload is required")
        build()
        w = next(w for w in WORKLOADS if w.name == a.workload)
        result = bench(w, a.seed, a.seconds, a.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
