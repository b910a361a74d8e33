"""Spans around calls into the library's layers, recorded from outside it.

A traced run replaces the names that ``isingmimo.harness`` imported from the
other library modules with wrappers. Each wrapper records one span (name,
layer, start, end, parent) plus counts taken from the call's arguments and
result, then hands back the callee's result unchanged, or re-raises what the
callee raised. Nothing inside the library changes, and spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Library modules whose functions the harness calls, keyed by the layer name
# the benchmark reports them under. ``harness`` is the caller and ``cli`` is
# measured by set-up time, so neither is wrapped.
WRAPPED_LAYERS = {
    "isingmimo.channel": "channel",
    "isingmimo.constellation": "constellation",
    "isingmimo.ising_map": "ising_map",
    "isingmimo.solvers": "solvers",
    "isingmimo.baselines": "baselines",
}
SOLVER_DETECTORS = ("bpim", "dpim", "oim")
BASELINE_DETECTORS = ("zf", "mmse", "ml")
MODEL_BUILDERS = ("build_binary_model", "build_pdit_model")
# Relative slack when comparing the exact detector's residual with ZF's and
# MMSE's on the same cell, for floating-point rounding.
ML_RTOL = 1e-9


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = float("nan")
    detector: str | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(parent: Span, children) -> float:
    """A span's duration minus the part of it that its children cover."""
    return parent.duration - covered(
        ((c.start, c.end) for c in children), parent.start, parent.end
    )


def tail_reportable(n_samples: int, q: float) -> bool:
    """A q-quantile is reported only with at least ten samples beyond it."""
    # The tolerance absorbs rounding in 1 - q (1 - 0.9 < 0.1 in binary).
    return n_samples * (1.0 - q) >= 10 - 1e-9


def solver_counts(args: dict, result) -> dict:
    """Kernel work of one solver call, from its arguments and outcomes.

    Rows are replicas times models; a site update is one variable (spin,
    p-dit or oscillator phase) updated once in one row, so a call performs
    rows x iterations x sites of them.
    """
    models = args.get("models")
    if models is None and "model" in args:
        models = [args["model"]]
    cfg = args.get("cfg")
    if models is None or cfg is None:
        return {}
    rows = len(models) * cfg.replicas
    iterations = cfg.schedule.n_iterations
    counts = {
        "models": len(models),
        "rows": rows,
        "site_updates": rows * iterations * models[0].n,
    }
    if result is not None:
        outcomes = result if isinstance(result, list) else [result]
        counts["best_iter_frac"] = [o.best_iteration / o.n_iterations for o in outcomes]
    return counts


def baseline_counts(args: dict, result) -> dict:
    """The residual a detector reached, keyed by its received vector."""
    if result is None or "y" not in args:
        return {}
    cell = hashlib.blake2b(np.asarray(args["y"]).tobytes(), digest_size=8).hexdigest()
    return {"cell": cell, "residual": result.residual_energy}


def model_counts(args: dict, result) -> dict:
    return {"models": 1}


def _bound_args(signature, args, kwargs) -> dict:
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    return dict(bound.arguments)


class Tracer:
    """Collects spans; installs wrappers and restores the original names."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple] = []

    def _start(self, name: str, layer: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._start(name, layer)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, fn, layer: str):
        """A function that records a span per call and otherwise is ``fn``."""
        name = fn.__name__
        prefix = name.split("_")[0]
        if layer == "solvers":
            counter = solver_counts
        elif layer == "baselines":
            counter = baseline_counts
        elif name in MODEL_BUILDERS:
            counter = model_counts
        else:
            counter = None
        try:
            signature = inspect.signature(fn) if counter is not None else None
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(f"{layer}.{name}", layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._finish(span)
                if counter is not None:
                    bound = _bound_args(signature, args, kwargs)
                    span.counts = counter(bound, result)
                    span.detector = (
                        prefix
                        if prefix in SOLVER_DETECTORS + BASELINE_DETECTORS
                        else bound.get("paradigm")
                    )

        return traced

    def install(self, namespace) -> None:
        """Wrap every library function that ``namespace`` holds."""
        for name, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj.__module__ in WRAPPED_LAYERS:
                self.install_one(namespace, name)

    def install_one(self, namespace, name: str) -> bool:
        fn = getattr(namespace, name, None)
        if not inspect.isfunction(fn) or fn.__module__ not in WRAPPED_LAYERS:
            return False
        setattr(namespace, name, self.wrap(fn, WRAPPED_LAYERS[fn.__module__]))
        self._patched.append((namespace, name, fn))
        return True

    def layers(self) -> set[str]:
        """Layers with at least one wrapped function installed."""
        return {WRAPPED_LAYERS[fn.__module__] for _, _, fn in self._patched}

    def restore(self) -> None:
        while self._patched:
            namespace, name, fn = self._patched.pop()
            setattr(namespace, name, fn)


def layer_metrics(spans: list[Span], root: Span) -> dict:
    """Per-layer seconds, calls and counts over the children of ``root``."""
    children = [s for s in spans if s.parent == root.id]
    m = {}
    for layer in ("channel", "constellation"):
        mine = [s for s in children if s.layer == layer]
        m[f"{layer}.s"] = sum(s.duration for s in mine)
        m[f"{layer}.calls"] = len(mine)
    mine = [s for s in children if s.layer == "ising_map"]
    m["ising_map.s"] = sum(s.duration for s in mine)
    m["ising_map.models"] = sum(s.counts.get("models", 0) for s in mine)
    for det in SOLVER_DETECTORS:
        mine = [s for s in children if s.layer == "solvers" and s.detector == det]
        calls = [s for s in mine if "rows" in s.counts]
        seconds = sum(s.duration for s in mine)
        updates = sum(s.counts["site_updates"] for s in calls)
        fracs = [f for s in calls for f in s.counts.get("best_iter_frac", [])]
        m[f"solvers.{det}.s"] = seconds
        m[f"solvers.{det}.calls"] = len(calls)
        m[f"solvers.{det}.rows_per_call"] = (
            sum(s.counts["rows"] for s in calls) / len(calls) if calls else 0
        )
        m[f"solvers.{det}.site_updates"] = updates
        m[f"solvers.{det}.site_updates_per_s"] = updates / seconds if seconds > 0 else 0
        m[f"solvers.{det}.best_iter_frac_p50"] = float(np.median(fracs)) if fracs else 0
    for det in BASELINE_DETECTORS:
        mine = [s for s in children if s.layer == "baselines" and s.detector == det]
        m[f"baselines.{det}.s"] = sum(s.duration for s in mine)
        m[f"baselines.{det}.calls"] = len(mine)
        m[f"baselines.{det}.failed"] = sum(1 for s in mine if s.error)
    ml_ms = [1e3 * s.duration for s in children if s.layer == "baselines" and s.detector == "ml"]
    for q, key in ((0.5, "p50"), (0.9, "p90")):
        reportable = tail_reportable(len(ml_ms), q)
        m[f"baselines.ml.cell_ms_{key}"] = float(np.quantile(ml_ms, q)) if reportable else 0
    m["harness.self_s"] = self_time(root, children)
    return m


def detector_cells(spans: list[Span], failed: bool = False) -> int:
    """Cells the traced run handed to a detector, or with ``failed`` those
    whose detector call raised. A baseline call is one cell; a solver call
    is one cell per model, as the harness charges a failed batch."""
    cells = 0
    for s in spans:
        if failed and s.error is None:
            continue
        if s.layer == "baselines" and s.detector in BASELINE_DETECTORS:
            cells += 1
        elif s.layer == "solvers" and s.detector in SOLVER_DETECTORS:
            cells += s.counts.get("models", 0)
    return cells


def ml_not_optimal(spans: list[Span]) -> list[str]:
    """Cells where the exact detector's residual exceeds ZF's or MMSE's."""
    best_linear: dict = {}
    exact: dict = {}
    for s in spans:
        if s.layer != "baselines" or "residual" not in s.counts:
            continue
        cell, residual = s.counts["cell"], s.counts["residual"]
        if s.detector == "ml":
            exact[cell] = residual
        else:
            best_linear[cell] = min(residual, best_linear.get(cell, float("inf")))
    return [
        cell
        for cell, residual in exact.items()
        if cell in best_linear and residual > best_linear[cell] * (1 + ML_RTOL) + 1e-12
    ]
