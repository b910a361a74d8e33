"""Benchmark of the isingmimo library, run from the root of a checkout:

    python3 bench/run.py --workload ber-qam4-n16-x2 --seed 1 --seconds 15 --trace 0

One run builds the workload's plan from ``--seed``, makes one warm-up call,
then repeats the call for ``--seconds`` seconds with tracing off, checking
that every repeat writes the same output bytes. A fixed probe runs before
and after each timed call, and each call's time is scaled by the machine
speed the probe saw (see ``reference_seconds``). It then runs the workload
once more in-process with one worker and every library function the harness
calls wrapped in a timing span (see ``tracer.py``), and checks that this
traced run writes the same bytes again. The traced run is bracketed and
scaled like a timed call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``. The
lines before it print every metric measured by name and unit, the
environment and the output's SHA-256. The same record, plus the spans, is
written under ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPEATS = 3
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 120
# Median time of reference_seconds() on the 2-core machine where the
# baseline was recorded; timed calls are scaled to that speed.
REFERENCE_NOMINAL_S = 0.04

# Metric names and units, in reporting order, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _probe_once() -> float:
    rng = np.random.default_rng(0)
    small = rng.standard_normal(8)
    block = rng.standard_normal((256, 64))
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(2000):
        np.sqrt(small @ small) * small + 1.0
    for _ in range(270):
        np.tanh(block * 1.5 + 0.5).sum(axis=1)
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Time of a fixed computation that never calls the library: the median
    of three runs, so that one interrupted run does not count.

    On a shared 2-core machine, repeats of one plan varied by up to 2x
    within minutes, and so did a pure-Python loop. This probe mixes a Python
    loop with small and medium numpy operations, like the workloads do, so
    its time tracks how fast the machine runs now.
    """
    return statistics.median(_probe_once() for _ in range(3))


def bracketed(timed_call, done) -> tuple[list[float], list[float]]:
    """Times of ``timed_call()`` repeated until ``done(count)``, and the probe
    times before the first call and after each."""
    probes = [reference_seconds()]
    walls = []
    while not done(len(walls)):
        walls.append(timed_call())
        probes.append(reference_seconds())
    return walls, probes


def speed_scaled(walls, probes) -> list[float]:
    """Each wall time scaled to the nominal machine speed, using the mean of
    the probe times just before and just after it."""
    return [
        wall * REFERENCE_NOMINAL_S / ((probes[i] + probes[i + 1]) / 2)
        for i, wall in enumerate(walls)
    ]


def fresh_interpreter(code: str, *flags: str) -> tuple[float, str]:
    """Wall seconds and standard error of ``code`` run in a new interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc.stderr


def setup_walls(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the CLI and build the
    plan, and the probe times around them."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import isingmimo.cli\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{name!r}].plan({seed})\n"
    )
    return bracketed(lambda: fresh_interpreter(code)[0], lambda n: n >= SETUP_SAMPLES)


def harness_import_seconds() -> float:
    """Cumulative import time of ``isingmimo.harness`` from ``-X importtime``."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport isingmimo.cli\n"
    _, stderr = fresh_interpreter(code, "-X", "importtime")
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*isingmimo\.harness\s*$")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match:
            return int(match.group(1)) / 1e6
    return 0.0


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, if it is one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process and of its finished children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isingmimo" / "__init__.py").is_file():
        print(f"error: no isingmimo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isingmimo.channel
    import isingmimo.harness

    import tracer
    import workloads

    if Path(isingmimo.harness.__file__).resolve().parent != SRC / "isingmimo":
        print(f"error: isingmimo was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    threads = min(wl.threads, env["nproc"])
    out = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    plan = wl.plan(args.seed)
    cells = wl.cells(plan)
    problems = []

    # Warm-up: the first in-process call pays one-off costs users do not
    # pay on every run, so it stays out of the timing.
    result = wl.run(plan, threads)
    expected = wl.write(result, plan, out / "warmup").read_bytes()
    problems += wl.problems(result, plan)

    def repeat() -> float:
        start = time.perf_counter()
        repeated = wl.run(plan, threads)
        wall = time.perf_counter() - start
        if wl.write(repeated, plan, out / "timed").read_bytes() != expected:
            problems.append("a timed repeat wrote different output")
        return wall

    deadline = time.perf_counter() + args.seconds
    walls, probes = bracketed(
        repeat, lambda n: n >= MIN_REPEATS and time.perf_counter() >= deadline
    )
    wall = statistics.median(walls)
    scaled = statistics.median(speed_scaled(walls, probes))
    metrics = {
        "cells_per_s": cells / scaled,
        "peak_rss_mb": peak_rss_mb(),
    }

    # Traced run: same plan, one worker, every library call the harness
    # makes wrapped in a span.
    trace = tracer.Tracer()
    try:
        trace.install(isingmimo.harness)
        trace.install_one(isingmimo.channel, "build_instance")
        layers_present = trace.layers()
        with trace.span(wl.name, "benchmark") as root:
            traced_result = wl.run(plan, 1)
    finally:
        trace.restore()
    # The probes after the last repeat and after the traced run bracket it,
    # so the traced run is compared with the repeats at the same speed.
    probes.append(reference_seconds())
    traced_s = speed_scaled([root.duration], probes[-2:])[0]
    start = time.perf_counter()
    traced_path = wl.write(traced_result, plan, out / "traced")
    report_s = time.perf_counter() - start
    if traced_path.read_bytes() != expected:
        problems.append("the traced one-worker run wrote different output")
    handled = tracer.detector_cells(trace.spans)
    if handled != cells:
        problems.append(f"the traced run handed {handled} cells to detectors, not {cells}")
    suboptimal = tracer.ml_not_optimal(trace.spans)
    if suboptimal:
        problems.append(f"exact ML residual above ZF/MMSE on {len(suboptimal)} cells")
    failed_per_run = tracer.detector_cells(trace.spans, failed=True)

    metrics.update(tracer.layer_metrics(trace.spans, root))
    metrics["harness.report_s"] = report_s
    metrics["harness.pool.speedup"] = traced_s / scaled if threads > 1 else 0.0
    metrics["tracing.overhead_s"] = traced_s - scaled if threads == 1 else 0.0
    metrics["benchmark.cells_per_wall_s"] = cells / wall
    metrics["benchmark.reference_ms"] = 1e3 * statistics.median(probes)
    metrics["heuristic_ber"] = 0.0
    metrics["norm_energy_min"] = 0.0
    metrics.update(wl.quality(result))
    setup_walls_s = setup_probes_s = None
    if args.trace:
        metrics["harness.import_s"] = harness_import_seconds()
    else:
        setup_walls_s, setup_probes_s = setup_walls(wl.name, args.seed)
        metrics["setup_s"] = statistics.median(speed_scaled(setup_walls_s, setup_probes_s))

    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    absent = sorted(set(tracer.WRAPPED_LAYERS.values()) - layers_present)
    digest = hashlib.sha256(expected).hexdigest()
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "threads": threads,
        "cells_per_run": cells,
        "walls_s": walls,
        "probes_s": probes,
        "setup_walls_s": setup_walls_s,
        "setup_probes_s": setup_probes_s,
        "traced_wall_s": root.duration,
        "traced_scaled_s": traced_s,
        "failed_cells_per_run": failed_per_run,
        "errors_by_call": Counter(f"{s.name}:{s.error}" for s in trace.spans if s.error),
        "output_sha256": digest,
        "absent_layers": absent,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    with open(out / "spans.jsonl", "w") as fh:
        for span in trace.spans:
            fh.write(json.dumps(asdict(span)) + "\n")

    print(
        f"workload {wl.name} seed {args.seed}: {cells} cells per run, "
        f"{len(walls)} timed runs, threads={threads}"
    )
    print("environment " + json.dumps(env))
    print(f"output_sha256 {digest}")
    if setup_walls_s is not None:
        print(f"setup as measured, before speed scaling = {statistics.median(setup_walls_s)!r} s")
    if absent:
        print("absent layers: " + ", ".join(absent))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for problem in problems:
        print(f"incorrect: {problem}")
    wanted = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": cells * len(walls),
                "failed": failed_per_run * len(walls),
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
