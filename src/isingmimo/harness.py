"""Experiment orchestration: seeded BER sweeps, scaling fits, CSV reporting.

A run is a pure function of its plan (which embeds the master seed), so
repeated runs produce byte-identical CSVs regardless of worker count.
``--threads`` spreads one kind of item over worker processes (:func:`_map`):
channels for a BER sweep (``run``, ``sweep`` and ``report``) and whole
instances for ``fit-beta``. So threads beyond that count add nothing, and a
one-channel plan runs on one core. Every random draw inside a channel worker
comes from a seed derived from (master, role, channel, message, point),
with the detector's index after the role in a solver's seed, so results do
not depend on scheduling. ``channel.channel_instances`` owns the cell
recipe; this module seeds only the solvers and the random references.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    ChannelFactors,
    SearchBudgetError,
    SingularChannelError,
    ml_exact,
    mmse_detect,
    require_ml_budget,
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
    noise_sigma_sq,
    realify,
)
from .constellation import Constellation, build_constellation, demodulate_symbols
from .ising_map import (
    binary_couplings,
    build_binary_model,
    build_pdit_model,
    pdit_couplings,
    random_state_energies,
    spins_to_symbols,
)
from .solvers import (
    PARADIGMS,
    SolverConfig,
    default_parameters,
    require_ints,
    require_peaks,
    solve_many,
    worker_pool,
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
    "plan_from_manifest",
]

logger = logging.getLogger(__name__)

KNOWN_DETECTORS = ("zf", "mmse", "ml") + tuple(PARADIGMS)

# Expected baseline failures: the cell counts as all-bits-wrong, never raised.
_DETECTOR_FAILURES = (SingularChannelError, SearchBudgetError)

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

    @cached_property
    def constellation(self) -> Constellation:
        """The constellation of ``order``, built once per plan object."""
        return build_constellation(self.order)

    @property
    def bits_per_message(self) -> int:
        return self.n * self.constellation.bits_per_symbol

    @property
    def n_channels(self) -> int:
        return self.total_bits // (self.bits_per_message * self.messages_per_channel)


@dataclass(frozen=True)
class BerPoint:
    """One (detector, Eb/N0 point) result: one row of ``results.csv``, whose
    columns are these fields in order.

    ``n`` and ``order`` are the plan's antennas and constellation order.
    ``bits`` counts the bits sent per (detector, point) over all channels
    and messages, and ``errors`` those the detector got wrong; ``ber`` is
    their ratio. ``ber_upper_95`` is -ln(0.05) / bits, the zero-error bound,
    on every row whatever the errors: it is not a confidence interval.
    ``replicas`` and ``iterations`` are the heuristic's solver config, and
    empty (None) for ``zf``, ``mmse`` and ``ml``. ``seed`` is the plan's
    master seed.
    """

    detector: str
    n: int
    order: int
    ebn0_db: float
    bits: int
    errors: int
    ber: float
    ber_upper_95: float
    replicas: int | None
    iterations: int | None
    seed: int


def _sequence(name: str, values) -> tuple:
    """``values``, which must be a sequence or another iterable, not a string,
    as a tuple."""
    if isinstance(values, str):
        raise ValueError(f"{name} must be a sequence, not the string {values!r}")
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence; got {values!r}") from None


def _numbers(name: str, values) -> tuple:
    """``values``, a :func:`_sequence` of real numbers, as a tuple of
    floats. A string, bytes or a bool is no number, though ``float`` reads
    one; a numpy scalar is."""
    items = _sequence(name, values)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        raise ValueError(f"{name} must hold numbers only; got {list(items)!r}")
    return tuple(float(v) for v in items)


def _distinct(name: str, values) -> None:
    """Reject a repeated value: its seeds, keyed by position, would differ."""
    for idx, v in enumerate(values):
        if v in values[:idx]:
            raise ValueError(f"{name} {v!r} is named more than once")


def _ebn0_points(ebn0_list) -> tuple:
    """The Eb/N0 points of a plan or an instance pool as floats: a sequence,
    not a string, with at least one value, none NaN, -inf or repeated."""
    points = _numbers("ebn0_list", ebn0_list)
    if not points:
        raise ValueError("need at least one Eb/N0 point")
    if any(math.isnan(v) or v == -math.inf for v in points):
        raise ValueError(f"Eb/N0 values must be real or +inf; got {points}")
    _distinct("Eb/N0 value", points)
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
    seed must be ints, never rounded, the seed non-negative, and a given
    replica or iteration count at least 1, whatever the detectors. Each list
    is an iterable, not a string, with at least one entry: the Eb/N0 points
    numbers, and the detectors known and none named twice. An ``ml`` plan
    must fit the exact search's budget (:func:`baselines.require_ml_budget`).
    Every check of the plan happens here, so an invalid plan fails before
    any work.
    """
    counts = dict(n=n, total_bits=total_bits, seed=seed, messages_per_channel=messages_per_channel)
    optional = dict(replicas=replicas, iterations=iterations)
    require_ints(order=order, **counts, **{k: v for k, v in optional.items() if v is not None})
    ebn0_points = _ebn0_points(ebn0_list)
    detectors = _sequence("detectors", detectors)
    if not detectors:
        raise ValueError("detectors must name at least one detector")
    if n < 1 or messages_per_channel < 1:
        raise ValueError("n and messages_per_channel must be at least 1")
    for name, value in optional.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1; got {value}")
    if seed < 0:  # a SeedSequence takes no negative entropy
        raise ValueError(f"seed must be non-negative; got {seed}")
    plan = ExperimentPlan(
        n=n,
        order=order,
        ebn0_list=ebn0_points,
        total_bits=total_bits,
        seed=seed,
        detectors=detectors,
        messages_per_channel=messages_per_channel,
        replicas=replicas,
        iterations=iterations,
    )
    c = plan.constellation  # validates the order
    for ebn0 in ebn0_points:  # rejects a point with no usable noise variance
        noise_sigma_sq(n, c, ebn0)
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
    _distinct("detector", plan.detectors)
    if "ml" in plan.detectors:
        require_ml_budget(order, n)
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


def _paradigm_models(paradigm: str, H: np.ndarray, ys, c: Constellation) -> tuple:
    """The paradigm's Ising models of received vectors ``ys`` of
    constellation ``c`` over channel ``H``, and the map from one of its
    solver states to symbols."""
    n = H.shape[1]
    rc = realify(H, ys[0], c.order)
    # The couplings depend on H only: build them once, and per cell only the
    # bias (and offset). Every model then shares one j_matrix object.
    if PARADIGMS[paradigm].model == "pdit":
        j_matrix = pdit_couplings(rc)
        models = [build_pdit_model(rc.with_received(y), j_matrix) for y in ys]
        return models, lambda d: complex_symbols(d, n)
    couplings = binary_couplings(rc)
    models = [build_binary_model(rc.with_received(y), couplings) for y in ys]
    return models, lambda s: spins_to_symbols(s, n, c)


def _detector_bits(
    detector: str, d_idx: int, cells: list, plan: ExperimentPlan, factors: ChannelFactors
) -> list:
    """The recovered bits of each of a channel's cells under one detector, or
    None where a baseline failed as expected. A heuristic solves all the
    cells in one :func:`solve_many` call, since its couplings depend on the
    channel only; that call may split them into kernel calls by state size,
    and each cell's replica streams match a standalone solve. A baseline
    detects with ``factors``, the channel's :class:`ChannelFactors`, which
    every baseline of the channel shares."""
    c = plan.constellation
    if detector in PARADIGMS:
        seeds = [
            derive_seed(
                plan.seed, ROLE_SOLVER, d_idx, i.channel_index, i.message_index, i.ebn0_index
            )
            for i in cells
        ]
        models, to_symbols = _paradigm_models(
            detector, cells[0].channel, [i.rx_vector for i in cells], c
        )
        cfg = _solver_config(detector, plan.n, plan.order, plan.replicas, plan.iterations)
        outcomes = solve_many(detector, models, cfg, seeds)
        return [demodulate_symbols(to_symbols(o.best_state), c) for o in outcomes]
    recovered = []
    for inst in cells:
        try:
            if detector == "zf":
                result = zf_detect(factors, inst.rx_vector, c)
            elif detector == "mmse":
                result = mmse_detect(factors, inst.rx_vector, inst.sigma_sq, c)
            else:
                result = ml_exact(factors, inst.rx_vector, c)
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


def _channel_errors(plan: ExperimentPlan, channel_index: int) -> np.ndarray:
    """Bit-error counts for one channel: shape (detectors, ebn0 points)."""
    messages, points = range(plan.messages_per_channel), enumerate(plan.ebn0_list)
    c = plan.constellation
    cells = channel_instances(c, plan.n, plan.seed, channel_index, messages, points)
    instances = [inst for inst, _ in cells]
    # Each part of the factors is computed on first use, so a channel whose
    # plan has no baseline computes none.
    factors = ChannelFactors(instances[0].channel)
    errors = np.zeros((len(plan.detectors), len(plan.ebn0_list)), dtype=np.int64)
    for d_idx, detector in enumerate(plan.detectors):
        recovered = _detector_bits(detector, d_idx, instances, plan, factors)
        for (inst, bits), det_bits in zip(cells, recovered):
            # A failed cell counts all its bits as errors; denominators stay fixed.
            errors[d_idx, inst.ebn0_index] += (
                plan.bits_per_message
                if det_bits is None
                else int(np.count_nonzero(det_bits != bits))
            )
    return errors


def _require_threads(threads) -> None:
    """A sweep's ``threads``, its worker processes, is an int of at least 1."""
    require_ints(threads=threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1; got {threads}")


def _map(function, items, threads: int) -> list:
    """``function`` of each of ``items``, in order: the sweeps' one parallel
    path. The items are channels for :func:`run_ber_sweep` and whole
    instances for :func:`beta_sweep`. With ``threads`` above one, they are
    mapped over that many processes of :func:`solvers.worker_pool`, at most
    one per item, each on one BLAS thread; with one, they run in this
    process under the caller's BLAS setting. So ``threads`` beyond the item
    count adds nothing, and one item runs on one core. ``function`` draws
    only from seeds keyed by its item, so the result does not depend on
    ``threads``."""
    workers = min(threads, len(items))
    if workers <= 1:
        return [function(item) for item in items]
    with worker_pool(workers) as pool:
        return list(pool.map(function, items))


def run_ber_sweep(plan: ExperimentPlan, threads: int = 1) -> list[BerPoint]:
    """Run every (channel, message, point, detector) cell and aggregate BER.

    The channels are mapped over ``threads`` worker processes (:func:`_map`);
    the result does not depend on it. An invalid plan fails in
    :func:`plan_experiment` before any work.
    """
    plan = plan_experiment(**{f.name: getattr(plan, f.name) for f in fields(ExperimentPlan)})
    _require_threads(threads)
    per_channel = _map(partial(_channel_errors, plan), range(plan.n_channels), threads)
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
                    n=plan.n,
                    order=plan.order,
                    ebn0_db=float(ebn0),
                    bits=bits_per_point,
                    errors=err,
                    ber=err / bits_per_point,
                    ber_upper_95=ber_upper_bound(bits_per_point),
                    replicas=cfg.replicas if cfg is not None else None,
                    iterations=cfg.schedule.n_iterations if cfg is not None else None,
                    seed=plan.seed,
                )
            )
    return points


def ber_upper_bound(n_bits: int) -> float:
    """Upper 95% BER bound consistent with observing zero errors in n_bits."""
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    # 1.0 - 0.95 is not the float 0.05; the CSVs' goldens pin this one.
    return -math.log(1.0 - 0.95) / n_bits


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

    @property
    def at_edge(self) -> bool:
        """Whether the lowest mean lies at the grid's first or last peak, as
        it always does on a grid of one or two peaks: the sweep then bounds
        the optimum on one side only, and ``beta_opt`` is the grid's end, not
        an optimum."""
        return int(np.argmin(self.mean_final_energy)) in (0, self.beta_grid.size - 1)


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
    threads: int = 1,
) -> tuple:
    """Every check of :func:`beta_sweep`'s arguments, the Eb/N0 list as a
    plan's is, made before any instance is built, as :func:`plan_experiment`
    checks a plan.

    Returns the sorted peak grid, the Eb/N0 points, the solver config of
    every cell and the constellation; the grid's peaks are passed beside the
    config, one per model.
    """
    require_ints(
        n=n,
        order=order,
        n_instances=n_instances,
        n_trials=n_trials,
        n_iterations=n_iterations,
        seed=seed,
    )
    if seed < 0:  # a SeedSequence takes no negative entropy
        raise ValueError(f"seed must be non-negative; got {seed}")
    _require_threads(threads)
    c = build_constellation(order)  # validates the order
    beta_grid = require_peaks(sorted(_numbers("beta_grid", beta_grid)))
    if beta_grid.size == 0:
        raise ValueError("beta_grid needs at least one peak")
    _distinct("peak", beta_grid.tolist())
    ebn0_list = _ebn0_points(ebn0_list)
    # The random reference's standard error needs two pool instances.
    if n_instances * len(ebn0_list) < 2:
        raise ValueError(
            "the instance pool needs at least two instances, n_instances per Eb/N0 value;"
            f" got {n_instances} x {len(ebn0_list)}"
        )
    # The config is built before the pool, so that an unknown paradigm or
    # invalid trial or iteration counts fail before any instance is generated.
    cfg = _solver_config(paradigm, n, order, n_trials, n_iterations)
    for ebn0 in ebn0_list:  # rejects a point with no usable noise variance
        noise_sigma_sq(n, c, ebn0)
    return beta_grid, ebn0_list, cfg, c


def _instance_finals(
    n: int, paradigm: str, beta_grid, ebn0_list, n_instances: int, cfg, c, seed: int, m_idx: int
) -> tuple:
    """Pool instance ``m_idx`` of a checked :func:`beta_sweep`: its random
    reference, and its (peaks, trials) final energies, each normalized by
    the mean |energy| of its 1000 random configurations. The instance is
    built, scored and then solved at every peak in one :func:`solve_many`
    call, one model per peak, each cell from its own seed."""
    e_idx = m_idx // n_instances
    inst, _ = build_instance(c, n, ebn0_list[e_idx], seed, channel_index=m_idx, ebn0_index=e_idx)
    (model,), _ = _paradigm_models(paradigm, inst.channel, [inst.rx_vector], c)
    # The reference stream is keyed by the 1-based pool index (m_idx + 1),
    # kept so that the goldens hold.
    energies = random_state_energies(model, derive_rng(seed, ROLE_RANDOM_CONFIG, m_idx + 1), 1000)
    scale = np.mean(np.abs(energies))
    seeds = [derive_seed(seed, ROLE_SOLVER, b_idx, m_idx) for b_idx in range(beta_grid.size)]
    outcomes = solve_many(paradigm, [model] * beta_grid.size, cfg, seeds, peaks=beta_grid)
    return np.mean(energies) / scale, np.stack([o.final_energies for o in outcomes]) / scale


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
    threads: int = 1,
) -> BetaSweepResult:
    """Mean final solver energy as a function of the annealing peak.

    The instance pool mixes ``n_instances`` fresh instances per Eb/N0 value,
    at least two in all; each (peak, instance) cell runs ``n_trials``
    independent replicas and averages their final energies. Energies are
    normalized per instance by the mean |energy| of 1000 uniformly random
    configurations, which leaves the minimizing peak unchanged. For the
    oscillator paradigm the grid is interpreted as peak noise levels.
    :func:`plan_beta_sweep` checks every argument before any instance is
    built.

    The instances are mapped over ``threads`` worker processes (:func:`_map`),
    whole: each is built, scored and solved at all its peaks by
    :func:`_instance_finals`, which the one-process loop calls too. A
    process holds one instance at a time, so memory does not grow with the
    pool. Each cell draws from its own seed, so the result does not depend
    on ``threads``.

    The result's ``at_edge`` tells whether the lowest mean lies at the
    grid's first or last peak, where ``beta_opt`` is no optimum.
    """
    beta_grid, ebn0_list, cfg, c = plan_beta_sweep(
        n, order, paradigm, beta_grid, n_instances, n_trials, n_iterations, ebn0_list, seed,
        threads,
    )
    instance = partial(
        _instance_finals, n, paradigm, beta_grid, ebn0_list, n_instances, cfg, c, seed
    )
    per_instance = _map(instance, range(n_instances * len(ebn0_list)), threads)
    random_refs = np.array([ref for ref, _ in per_instance])
    # Each peak's energies in instance order, one contiguous row.
    finals = np.stack([f for _, f in per_instance], axis=1).reshape(beta_grid.size, -1)
    means = finals.mean(axis=1)
    stderrs = finals.std(axis=1, ddof=1) / np.sqrt(finals.shape[1])
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
    """Least-squares power law through (n, order, beta) triples, ``beta`` an
    optimal peak or the :class:`BetaSweepResult` whose ``beta_opt`` it is.

    BPSK points (order 2) are fitted as c * n**p; QAM points as
    c * (n * sqrt(order))**p. Sizes and orders must be ints, never rounded.
    Mixing families, giving fewer than three points or a sweep whose lowest
    mean lies at its grid's edge (``at_edge``) is rejected.
    """
    optima = []
    for n, order, b in points:
        if isinstance(b, BetaSweepResult):
            if b.at_edge:
                raise ValueError(
                    f"n={n} order={order}: the lowest mean is at the grid's edge, peak"
                    f" {b.beta_opt!r}, so it is not an optimum"
                )
            b = b.beta_opt
        optima.append((n, order, float(b)))
    points = optima
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


def report(points: list, plan: ExperimentPlan, out_dir):
    """Write ``results.csv``, one row of :class:`BerPoint` fields per point,
    and the reproduction manifest; return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(BerPoint))
        for p in points:
            writer.writerow(map(_csv_value, astuple(p)))
    manifest = {
        "format": "isingmimo-manifest v1",
        "version": __version__,
        "csv": csv_path.name,
        "plan": asdict(plan),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return csv_path, manifest_path


def plan_from_manifest(path) -> ExperimentPlan:
    """Rebuild the plan from a manifest written by :func:`report`, which
    names its CSV ``results.csv``."""
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
    unknown = [key for key in p if key not in keys]
    if unknown:
        raise ValueError(f"{path}: manifest plan has unknown keys {', '.join(unknown)}")
    if manifest.get("csv", "results.csv") != "results.csv":
        raise ValueError(f"{path}: csv must be results.csv; got {manifest['csv']!r}")
    return plan_experiment(**{key: p[key] for key in keys})


def format_summary(points: list) -> str:
    lines = []
    for p in points:
        lines.append(
            f"{p.detector:>6s}  Eb/N0={p.ebn0_db:6.2f} dB  bits={p.bits}  "
            f"errors={p.errors}  ber={p.ber:.3e}"
        )
    return "\n".join(lines)
