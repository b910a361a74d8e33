"""Experiment orchestration: seeded BER sweeps, scaling fits, CSV reporting.

A run is a pure function of its plan (which embeds the master seed), so
repeated runs produce byte-identical CSVs regardless of worker count.
Channels are the parallel unit; every random draw inside a channel worker
comes from a seed derived from (master, role, channel, message, point), so
results do not depend on scheduling. ``channel.channel_instances`` owns the
cell recipe; this module seeds only the solvers and the random references.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    ML_SEARCH_BUDGET,
    SearchBudgetError,
    SingularChannelError,
    ml_exact,
    mmse_detect,
    zf_detect,
)
from .channel import (
    ROLE_RANDOM_CONFIG,
    ROLE_SOLVER,
    build_instance,
    channel_instances,
    complex_symbols,
    derive_rng,
    derive_seed,
    realify,
)
from .constellation import Constellation, axis_level_count, build_constellation, demodulate_symbols
from .ising_map import (
    binary_couplings,
    build_binary_model,
    build_pdit_model,
    pdit_couplings,
    random_state_energies,
    require_ints,
    spins_to_symbols,
)
from .solvers import (
    PARADIGMS,
    SolverConfig,
    _openblas,
    default_parameters,
    require_peaks,
    solve_many,
)

__all__ = [
    "ExperimentPlan",
    "BerPoint",
    "BetaSweepResult",
    "ScalingFit",
    "KNOWN_DETECTORS",
    "plan_experiment",
    "run_ber_sweep",
    "ber_upper_bound",
    "plan_beta_sweep",
    "beta_sweep",
    "fit_scaling_law",
    "report",
    "format_summary",
    "write_manifest",
    "plan_from_manifest",
]

logger = logging.getLogger(__name__)

KNOWN_DETECTORS = ("zf", "mmse", "ml") + tuple(PARADIGMS)

# Expected baseline failures: the cell counts as all-bits-wrong, never raised.
_DETECTOR_FAILURES = (SingularChannelError, SearchBudgetError)

CSV_COLUMNS = (
    "detector",
    "n",
    "order",
    "ebn0_db",
    "bits",
    "errors",
    "ber",
    "ber_upper_95",
    "replicas",
    "iterations",
    "seed",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully seeded description of one BER experiment.

    The fields are :func:`plan_experiment`'s parameters, in the order the
    manifest records them.
    """

    n: int
    order: int
    ebn0_list: tuple
    total_bits: int
    seed: int
    detectors: tuple
    messages_per_channel: int
    replicas: int | None
    iterations: int | None

    @property
    def bits_per_message(self) -> int:
        return self.n * int(round(math.log2(self.order)))

    @property
    def n_channels(self) -> int:
        return self.total_bits // (self.bits_per_message * self.messages_per_channel)


@dataclass(frozen=True)
class BerPoint:
    detector: str
    ebn0_db: float
    bits: int
    errors: int
    ber: float
    ber_upper_95: float
    replicas: int | None
    iterations: int | None


def _sequence(name: str, values):
    """``values``, which must be a sequence, not a string."""
    if isinstance(values, str):
        raise ValueError(f"{name} must be a sequence, not the string {values!r}")
    return values


def _ebn0_points(ebn0_list) -> tuple:
    """The Eb/N0 points of a plan or an instance pool as floats: a sequence,
    not a string, with at least one value, none NaN or -inf."""
    points = tuple(float(v) for v in _sequence("ebn0_list", ebn0_list))
    if not points:
        raise ValueError("need at least one Eb/N0 point")
    if any(math.isnan(v) or v == -math.inf for v in points):
        raise ValueError(f"Eb/N0 values must be real or +inf; got {points}")
    return points


def plan_experiment(
    n: int,
    order: int,
    ebn0_list,
    total_bits: int,
    seed: int,
    detectors=("mmse",),
    messages_per_channel: int = 14,
    replicas: int | None = None,
    iterations: int | None = None,
) -> ExperimentPlan:
    """Derive channel/message counts from a fixed total bit budget.

    Each channel carries ``messages_per_channel`` messages of
    n * log2(order) bits, so total_bits must be a multiple of that block;
    otherwise the error suggests the nearest valid budget. Counts, order and
    seed must be ints, never rounded, and no list may be a string. Every
    check of the plan happens here, so an invalid plan fails before any work.
    """
    counts = dict(n=n, total_bits=total_bits, seed=seed, messages_per_channel=messages_per_channel)
    optional = dict(replicas=replicas, iterations=iterations)
    require_ints(order=order, **counts, **{k: v for k, v in optional.items() if v is not None})
    ebn0_points = _ebn0_points(ebn0_list)
    _sequence("detectors", detectors)
    if n < 1 or messages_per_channel < 1:
        raise ValueError("n and messages_per_channel must be at least 1")
    axis_level_count(order)  # validates the order
    plan = ExperimentPlan(
        n=n,
        order=order,
        ebn0_list=ebn0_points,
        total_bits=total_bits,
        seed=seed,
        detectors=tuple(detectors),
        messages_per_channel=messages_per_channel,
        replicas=replicas,
        iterations=iterations,
    )
    block = plan.bits_per_message * messages_per_channel
    if total_bits <= 0 or total_bits % block != 0:
        nearest = max(block, round(total_bits / block) * block)
        raise ValueError(
            f"total_bits={total_bits} does not split into {messages_per_channel} "
            f"messages of {plan.bits_per_message} bits per channel; nearest valid value "
            f"is {nearest}"
        )
    for det in plan.detectors:
        if det not in KNOWN_DETECTORS:
            raise ValueError(f"unknown detector {det!r}; known: {KNOWN_DETECTORS}")
    if "ml" in plan.detectors and float(order) ** n > ML_SEARCH_BUDGET:
        raise ValueError(
            f"exact-ml detector refused: {order}**{n} exceeds the search budget"
        )
    for det in plan.detectors:
        if det in PARADIGMS:
            # Checks the order, replicas and iterations.
            _solver_config(det, plan.n, plan.order, plan.replicas, plan.iterations)
    return plan


def _solver_config(paradigm: str, n: int, order: int, replicas, iterations) -> SolverConfig:
    """:func:`default_parameters` with the replica and iteration counts that
    are not None in place of the defaults."""
    cfg = default_parameters(paradigm, n, order)
    if replicas is not None:
        cfg = replace(cfg, replicas=replicas)
    if iterations is not None:
        cfg = replace(cfg, schedule=replace(cfg.schedule, n_iterations=iterations))
    return cfg


def _paradigm_models(paradigm: str, H: np.ndarray, ys, order: int) -> tuple:
    """The paradigm's Ising models of received vectors ``ys`` over channel
    ``H``, and the map from one of its solver states to symbols."""
    n = H.shape[1]
    rc = realify(H, ys[0], order)
    # The couplings depend on H only: build them once, and per cell only the
    # bias (and offset). Every model then shares one j_matrix object.
    if PARADIGMS[paradigm].model == "pdit":
        j_matrix = pdit_couplings(rc)
        models = [build_pdit_model(rc.with_received(y), j_matrix) for y in ys]
        return models, lambda d: complex_symbols(d, n)
    couplings = binary_couplings(rc)
    models = [build_binary_model(rc.with_received(y), couplings) for y in ys]
    return models, lambda s: spins_to_symbols(s, n, order)


def _detector_bits(
    detector: str, d_idx: int, cells: list, c: Constellation, plan: ExperimentPlan
) -> list:
    """The recovered bits of each of a channel's cells under one detector, or
    None where a baseline failed as expected. A heuristic solves all the
    cells in one batched kernel call, since its couplings depend on the
    channel only; each cell's replica streams match a standalone solve."""
    if detector in PARADIGMS:
        seeds = [
            derive_seed(
                plan.seed, ROLE_SOLVER, d_idx, i.channel_index, i.message_index, i.ebn0_index
            )
            for i in cells
        ]
        models, to_symbols = _paradigm_models(
            detector, cells[0].channel, [i.rx_vector for i in cells], c.order
        )
        cfg = _solver_config(detector, plan.n, plan.order, plan.replicas, plan.iterations)
        outcomes = solve_many(detector, models, cfg, seeds)
        return [demodulate_symbols(to_symbols(o.best_state), c) for o in outcomes]
    recovered = []
    for inst in cells:
        try:
            if detector == "zf":
                result = zf_detect(inst.channel, inst.rx_vector, c)
            elif detector == "mmse":
                result = mmse_detect(
                    inst.channel, inst.rx_vector, inst.sigma_sq, c.symbol_energy, c
                )
            else:
                result = ml_exact(inst.channel, inst.rx_vector, c)
        except _DETECTOR_FAILURES:
            logger.exception(
                "detector %s failed on channel %d message %d point %d (%g dB); "
                "counting all %d bits as errors",
                detector,
                inst.channel_index,
                inst.message_index,
                inst.ebn0_index,
                inst.ebn0_db,
                plan.bits_per_message,
            )
            recovered.append(None)
        else:
            recovered.append(result.bits)
    return recovered


def _channel_errors(plan: ExperimentPlan, c: Constellation, channel_index: int) -> np.ndarray:
    """Bit-error counts for one channel: shape (detectors, ebn0 points).

    ``c`` is the plan's constellation, built once per sweep.
    """
    messages, points = range(plan.messages_per_channel), enumerate(plan.ebn0_list)
    cells = channel_instances(c, plan.n, plan.seed, channel_index, messages, points)
    instances = [inst for inst, _ in cells]
    errors = np.zeros((len(plan.detectors), len(plan.ebn0_list)), dtype=np.int64)
    for d_idx, detector in enumerate(plan.detectors):
        recovered = _detector_bits(detector, d_idx, instances, c, plan)
        for (inst, bits), det_bits in zip(cells, recovered):
            # A failed cell counts all its bits as errors; denominators stay fixed.
            errors[d_idx, inst.ebn0_index] += (
                plan.bits_per_message
                if det_bits is None
                else int(np.count_nonzero(det_bits != bits))
            )
    return errors


def _one_blas_thread() -> None:
    """Set numpy's BLAS to one thread in this process, if it is an OpenBLAS."""
    _, set_threads = _openblas()
    if set_threads is not None:
        set_threads(1)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """Processes that each run one BLAS thread.

    The workers share the cores, so a BLAS that threads inside each of them
    would oversubscribe the cores. For the same reason each worker also
    solves on one thread: an oscillator solve splits its batch over no more
    threads than numpy's BLAS runs. The calling process keeps its setting.
    """
    return ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)


def run_ber_sweep(plan: ExperimentPlan, threads: int = 1) -> list[BerPoint]:
    """Run every (channel, message, point, detector) cell and aggregate BER.

    ``threads`` is the number of worker processes, at most one per channel;
    each worker runs one BLAS thread. With one, the sweep runs in this
    process under the caller's BLAS setting. The result does not depend on it.
    An invalid plan fails in :func:`plan_experiment` before any work.
    """
    plan = plan_experiment(**{f.name: getattr(plan, f.name) for f in fields(ExperimentPlan)})
    require_ints(threads=threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads}")
    workers = min(threads, plan.n_channels)
    c = build_constellation(plan.order)
    if workers > 1:
        with _worker_pool(workers) as pool:
            per_channel = list(
                pool.map(
                    _channel_errors,
                    [plan] * plan.n_channels,
                    [c] * plan.n_channels,
                    range(plan.n_channels),
                )
            )
    else:
        per_channel = [_channel_errors(plan, c, ch) for ch in range(plan.n_channels)]
    errors = np.sum(per_channel, axis=0)
    bits_per_point = plan.n_channels * plan.messages_per_channel * plan.bits_per_message
    points = []
    for d_idx, detector in enumerate(plan.detectors):
        cfg = None
        if detector in PARADIGMS:
            cfg = _solver_config(detector, plan.n, plan.order, plan.replicas, plan.iterations)
        for e_idx, ebn0 in enumerate(plan.ebn0_list):
            err = int(errors[d_idx, e_idx])
            points.append(
                BerPoint(
                    detector=detector,
                    ebn0_db=float(ebn0),
                    bits=bits_per_point,
                    errors=err,
                    ber=err / bits_per_point,
                    ber_upper_95=ber_upper_bound(bits_per_point),
                    replicas=cfg.replicas if cfg is not None else None,
                    iterations=cfg.schedule.n_iterations if cfg is not None else None,
                )
            )
    return points


def ber_upper_bound(n_bits: int, confidence: float = 0.95) -> float:
    """Upper BER bound consistent with observing zero errors in n_bits."""
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    return -math.log(1.0 - confidence) / n_bits


# ---------------------------------------------------------------------------
# annealing-peak calibration


@dataclass(frozen=True, eq=False)
class BetaSweepResult:
    """Normalized mean final energy across an annealing-peak grid."""

    beta_grid: np.ndarray
    mean_final_energy: np.ndarray
    stderr: np.ndarray
    beta_opt: float
    random_reference: float
    random_reference_stderr: float


def plan_beta_sweep(
    n: int,
    order: int,
    paradigm: str,
    beta_grid,
    n_instances: int = 20,
    n_trials: int = 100,
    n_iterations: int = 100,
    ebn0_list=(3.0, 6.0, 9.0),
    seed: int = 0,
) -> tuple:
    """Every check of :func:`beta_sweep`'s arguments, the Eb/N0 list as a
    plan's is, made before any instance is built, as :func:`plan_experiment`
    checks a plan.

    Returns the sorted peak grid, the Eb/N0 points and the solver config of
    every cell; the grid's peaks are passed beside it, one per model.
    """
    require_ints(
        n=n, n_instances=n_instances, n_trials=n_trials, n_iterations=n_iterations, seed=seed
    )
    beta_grid = require_peaks(sorted(float(b) for b in _sequence("beta_grid", beta_grid)))
    if beta_grid.size == 0:
        raise ValueError("beta_grid needs at least one peak")
    ebn0_list = _ebn0_points(ebn0_list)
    # The random reference's standard error needs two pool instances.
    if n_instances * len(ebn0_list) < 2:
        raise ValueError(
            "the instance pool needs at least two instances, n_instances per Eb/N0 value;"
            f" got {n_instances} x {len(ebn0_list)}"
        )
    # The config is built before the pool, so that an unknown paradigm or
    # invalid trial or iteration counts fail before any instance is generated.
    return beta_grid, ebn0_list, _solver_config(paradigm, n, order, n_trials, n_iterations)


def beta_sweep(
    n: int,
    order: int,
    paradigm: str,
    beta_grid,
    n_instances: int = 20,
    n_trials: int = 100,
    n_iterations: int = 100,
    ebn0_list=(3.0, 6.0, 9.0),
    seed: int = 0,
) -> BetaSweepResult:
    """Mean final solver energy as a function of the annealing peak.

    The instance pool mixes ``n_instances`` fresh instances per Eb/N0 value,
    at least two in all; each (peak, instance) cell runs ``n_trials``
    independent replicas and averages their final energies. Energies are normalized per instance by
    the mean |energy| of 1000 uniformly random configurations, which leaves
    the minimizing peak unchanged. For the oscillator paradigm the grid is
    interpreted as peak noise levels. :func:`plan_beta_sweep` checks every
    argument before any instance is built.

    Each instance is solved at every peak in one solver call, one model per
    peak; a (peak, instance) cell draws from its own seed, so the result does
    not depend on how the cells are batched.
    """
    beta_grid, ebn0_list, cfg = plan_beta_sweep(
        n, order, paradigm, beta_grid, n_instances, n_trials, n_iterations, ebn0_list, seed
    )
    c = build_constellation(order)
    models = []
    scales = []
    random_refs = []
    pool_index = 0
    for e_idx, ebn0 in enumerate(ebn0_list):
        for k in range(n_instances):
            inst, _ = build_instance(
                c, n, ebn0, seed, channel_index=pool_index, ebn0_index=e_idx
            )
            pool_index += 1
            (model,), _ = _paradigm_models(paradigm, inst.channel, [inst.rx_vector], order)
            rng = derive_rng(seed, ROLE_RANDOM_CONFIG, pool_index)
            energies = random_state_energies(model, rng, 1000)
            models.append(model)
            scales.append(np.mean(np.abs(energies)))
            random_refs.append(np.mean(energies))
    scales = np.array(scales)
    random_refs = np.array(random_refs) / scales

    # finals[b, m]: instance m's normalized final energies at peak b.
    finals = np.empty((beta_grid.size, len(models), cfg.replicas))
    for m_idx, model in enumerate(models):
        seeds = [derive_seed(seed, ROLE_SOLVER, b_idx, m_idx) for b_idx in range(beta_grid.size)]
        outcomes = solve_many(paradigm, [model] * beta_grid.size, cfg, seeds, peaks=beta_grid)
        for b_idx, outcome in enumerate(outcomes):
            finals[b_idx, m_idx] = outcome.final_energies / scales[m_idx]
    # Each peak's energies in instance order, one contiguous row.
    finals = finals.reshape(beta_grid.size, -1)
    means = np.array([row.mean() for row in finals])
    stderrs = np.array([row.std(ddof=1) for row in finals]) / np.sqrt(finals.shape[1])
    return BetaSweepResult(
        beta_grid=beta_grid,
        mean_final_energy=means,
        stderr=stderrs,
        beta_opt=float(beta_grid[int(np.argmin(means))]),
        random_reference=float(random_refs.mean()),
        random_reference_stderr=float(
            random_refs.std(ddof=1) / np.sqrt(random_refs.size)
        ),
    )


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Power-law fit of optimal annealing peaks against problem size."""

    coefficient: float
    exponent: float
    residuals: np.ndarray
    family: str


def fit_scaling_law(points) -> ScalingFit:
    """Least-squares power law through (n, order, beta_opt) triples.

    BPSK points (order 2) are fitted as c * n**p; QAM points as
    c * (n * sqrt(order))**p. Sizes and orders must be ints, never rounded.
    Mixing families or giving fewer than three points is rejected.
    """
    points = [(n, order, float(b)) for n, order, b in points]
    for n, order, _ in points:
        require_ints(n=n, order=order)
    if len(points) < 3:
        raise ValueError("need at least three points to fit a scaling law")
    orders = {order for _, order, _ in points}
    if orders == {2}:
        family = "bpsk"
        x = np.array([math.log(n) for n, _, _ in points])
    elif 2 not in orders:
        family = "qam"
        x = np.array([math.log(n * math.sqrt(order)) for n, order, _ in points])
    else:
        raise ValueError("cannot mix BPSK and QAM points in one fit")
    betas = np.array([b for _, _, b in points])
    if not (np.isfinite(betas) & (betas > 0)).all():
        raise ValueError(f"beta values must be positive and finite; got {betas.tolist()}")
    design = np.stack([np.ones_like(x), x], axis=1)
    if np.linalg.matrix_rank(design) < 2:
        raise ValueError("degenerate fit: all points share one size")
    coef, *_ = np.linalg.lstsq(design, np.log(betas), rcond=None)
    fitted = design @ coef
    return ScalingFit(
        coefficient=float(math.exp(coef[0])),
        exponent=float(coef[1]),
        residuals=np.log(betas) - fitted,
        family=family,
    )


# ---------------------------------------------------------------------------
# reporting


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report(points: list, plan: ExperimentPlan, out_dir, csv_name: str = "results.csv"):
    """Write the results CSV and the reproduction manifest; return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / csv_name
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in points:
            writer.writerow(
                [
                    p.detector,
                    plan.n,
                    plan.order,
                    _csv_value(p.ebn0_db),
                    p.bits,
                    p.errors,
                    _csv_value(p.ber),
                    _csv_value(p.ber_upper_95),
                    _csv_value(p.replicas),
                    _csv_value(p.iterations),
                    plan.seed,
                ]
            )
    manifest_path = write_manifest(plan, out, csv_name)
    return csv_path, manifest_path


def write_manifest(plan: ExperimentPlan, out_dir, csv_name: str) -> Path:
    manifest = {
        "format": "isingmimo-manifest v1",
        "version": __version__,
        "csv": csv_name,
        "plan": asdict(plan),
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def plan_from_manifest(path) -> tuple:
    """Rebuild (plan, csv_name) from a manifest written by :func:`report`.

    The CSV name must be a plain file name, so the CSV is written inside
    the output directory and does not overwrite the manifest.
    """
    manifest = json.loads(Path(path).read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != "isingmimo-manifest v1":
        raise ValueError(f"{path}: not an isingmimo manifest")
    p = manifest.get("plan")
    if not isinstance(p, dict):
        raise ValueError(f"{path}: manifest lacks a plan object")
    keys = [f.name for f in fields(ExperimentPlan)]
    missing = [key for key in keys if key not in p]
    if missing:
        raise ValueError(f"{path}: manifest plan lacks {', '.join(missing)}")
    plan = plan_experiment(**{key: p[key] for key in keys})
    csv_name = manifest.get("csv", "results.csv")
    if (
        not isinstance(csv_name, str)
        or Path(csv_name).name != csv_name
        or csv_name in ("", ".", "..", "manifest.json")
    ):
        raise ValueError(
            f"{path}: csv must be a plain file name other than manifest.json; got {csv_name!r}"
        )
    return plan, csv_name


def format_summary(points: list) -> str:
    lines = []
    for p in points:
        lines.append(
            f"{p.detector:>6s}  Eb/N0={p.ebn0_db:6.2f} dB  bits={p.bits}  "
            f"errors={p.errors}  ber={p.ber:.3e}"
        )
    return "\n".join(lines)
