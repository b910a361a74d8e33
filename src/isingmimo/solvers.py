"""Heuristic ground-state search: p-bit sweeps, p-dit sweeps, oscillator phases.

All three solvers run R independent replicas per model and report the best
energy seen across every sweep of every replica. Each model's replica
streams are spawned from that model's seed, so replica r draws the same
numbers whatever batch, chunk or position its model is solved in; results
depend only on seeds, never on execution order.

The kernels operate on a stack of rows, one row per (model, replica), and
yield the rows' state after every iteration. One loop, ``_solve_many``,
scores each state and keeps every row's best state, energy and iteration
and its final energy. Because the coupling matrix of a MIMO instance
depends only on the channel, the models of one channel are solved in one
kernel call with per-row bias vectors. Each solver has one such batched
entry point, ``*_solve_many``, with the signature ``(models, cfg, seeds)``.
:data:`PARADIGMS` holds one :class:`Paradigm` record per solver, and
:func:`solve_many` dispatches on its name.

Each solver fixes its own ramp direction and constants: the p-bit and p-dit
sweeps raise the inverse temperature to the schedule's peak, and the
oscillator dynamics lower the noise level from it to zero, with constants
from :func:`oim_params` scaled by the model size.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ising_map import BinaryIsingModel, PditModel, ising_energies

__all__ = [
    "AnnealSchedule",
    "OimParams",
    "SolverConfig",
    "SolveOutcome",
    "Paradigm",
    "PARADIGMS",
    "default_parameters",
    "oim_params",
    "solve_many",
    "bpim_solve_many",
    "dpim_solve_many",
    "oim_solve_many",
]

DEFAULT_REPLICAS = 64
DEFAULT_ITERATIONS = 100

# Upper bound on pre-drawn random numbers held in memory at once; batches
# larger than this are solved in chunks.
_MAX_PREDRAW = 8_000_000

# Time step of the oscillator phase integration.
_OIM_DT = 0.01


@dataclass(frozen=True)
class AnnealSchedule:
    """A linear annealing ramp to ``peak``; each solver fixes its direction.

    With ramp(k) = k / n_iterations for k = 1..n_iterations, the p-bit and
    p-dit solvers anneal beta(k) = peak * ramp(k) up, and the oscillator
    solver anneals temperature(k) = peak * (1 - ramp(k)) down, reaching 0 at
    the final step.
    """

    peak: float
    n_iterations: int

    def __post_init__(self):
        if not 0 < self.peak < np.inf:
            raise ValueError(f"schedules need a positive, finite peak; got {self.peak!r}")
        if self.n_iterations < 1:
            raise ValueError("schedule needs at least one iteration")

    def ramp(self) -> np.ndarray:
        """k / n_iterations at iterations k = 1..n_iterations."""
        return np.arange(1, self.n_iterations + 1) / self.n_iterations


@dataclass(frozen=True)
class OimParams:
    """Oscillator constants: coupling gain and binarization gain."""

    coupling: float
    binarization: float


@dataclass(frozen=True)
class SolverConfig:
    """Replica count and annealing schedule.

    Seeds are not part of the config: the batched solvers take one per model.
    """

    replicas: int
    schedule: AnnealSchedule

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """One model's result over its replicas.

    ``best_state`` is in the model's own variables: spins of a binary model,
    or the 2N axis values [Re x; Im x] of a p-dit model.
    """

    best_state: np.ndarray
    best_energy: float
    final_energies: np.ndarray
    best_iteration: int
    n_iterations: int


@dataclass(frozen=True)
class Paradigm:
    """What the planner and the harness need to know about one solver."""

    modulations: tuple  # "BPSK" (order 2) and/or "QAM" (orders >= 4)
    model: str  # "binary" spin model or "pdit" symbol-native model
    peak: Callable[[int, int], float]  # default annealing peak for (n, order)
    solve: Callable  # the batched solver, (models, cfg, seeds) -> outcomes


def _paradigm(name: str) -> Paradigm:
    try:
        return PARADIGMS[name]
    except KeyError:
        raise ValueError(
            f"unknown paradigm {name!r}; expected one of {tuple(PARADIGMS)}"
        ) from None


def default_parameters(paradigm: str, n: int, order: int = 2) -> SolverConfig:
    """Size- and modulation-scaled solver settings.

    Peak inverse temperature: sqrt(3) * n^(-2/3) for binary-spin sweeps on
    BPSK, 13 / (n sqrt(order)) for QAM; sqrt(2) * n^(-4/5) for symbol-native
    sweeps regardless of order. Oscillator runs (BPSK only) ramp their
    noise level down from 30 to 0, with the constants of :func:`oim_params`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = _paradigm(paradigm)
    if ("BPSK" if order == 2 else "QAM") not in p.modulations:
        raise ValueError(
            f"{paradigm} solver supports {' and '.join(p.modulations)} only; got order {order}"
        )
    return SolverConfig(
        replicas=DEFAULT_REPLICAS,
        schedule=AnnealSchedule(float(p.peak(n, order)), DEFAULT_ITERATIONS),
    )


def solve_many(paradigm: str, models, cfg: SolverConfig, seeds) -> list[SolveOutcome]:
    """Solve models that share one channel with the named paradigm's solver."""
    return _paradigm(paradigm).solve(models, cfg, seeds)


def _spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    # Rebuild the sequence so spawning is idempotent: SeedSequence.spawn
    # advances an internal child counter on the original object.
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def _solve_many(kernel, models, cfg: SolverConfig, seeds) -> list[SolveOutcome]:
    """The annealing loop of every batched solver.

    ``kernel(model, h_rows, rngs)`` yields the rows' state after every
    iteration, in the layout of ``h_rows``, on the couplings of ``model``,
    which every model of the chunk shares. Each row keeps its first state of
    lowest energy, and the energy of its last state is its final energy.
    """
    if len(seeds) != len(models):
        raise ValueError("need one seed per model")
    j = models[0].j_matrix
    for m in models[1:]:
        if m.j_matrix is not j and not np.array_equal(m.j_matrix, j):
            raise ValueError("batched models must share one coupling matrix")
    per_model = cfg.schedule.n_iterations * models[0].n
    chunk = max(1, _MAX_PREDRAW // max(1, per_model * cfg.replicas))
    outcomes = []
    for lo in range(0, len(models), chunk):
        hi = min(lo + chunk, len(models))
        rngs = [rng for seed in seeds[lo:hi] for rng in _spawn_rngs(seed, cfg.replicas)]
        h_rows = np.repeat(np.stack([m.h_vector for m in models[lo:hi]]), cfg.replicas, axis=0)
        best_s = np.empty(h_rows.shape)
        best_e = np.full(len(h_rows), np.inf)
        best_it = np.zeros(len(h_rows), dtype=int)
        for it, s in enumerate(kernel(models[lo], h_rows, rngs), 1):
            e = ising_energies(s, j, h_rows)
            improved = e < best_e
            best_e[improved] = e[improved]
            best_s[improved] = s[improved]
            best_it[improved] = it
        for first in range(0, (hi - lo) * cfg.replicas, cfg.replicas):
            rows = slice(first, first + cfg.replicas)
            best = first + int(np.argmin(best_e[rows]))
            outcomes.append(
                SolveOutcome(
                    best_state=best_s[best],
                    best_energy=float(best_e[best]),
                    final_energies=e[rows].copy(),
                    best_iteration=int(best_it[best]),
                    n_iterations=cfg.schedule.n_iterations,
                )
            )
    return outcomes


# ---------------------------------------------------------------------------
# binary-spin probabilistic sweeps


def _bpim_sweeps(
    j: np.ndarray, h_rows: np.ndarray, betas: np.ndarray, rngs: list[np.random.Generator]
):
    """Sequential p-bit sweeps over a stack of rows; yields the live spins after each."""
    n = j.shape[0]
    n_it = len(betas)
    rows = len(rngs)
    s = np.empty((rows, n))
    u = np.empty((rows, n_it, n))
    for r, rng in enumerate(rngs):
        s[r] = rng.integers(0, 2, n) * 2 - 1
        u[r] = rng.uniform(-1.0, 1.0, (n_it, n))
    for k, beta in enumerate(betas):
        for i in range(n):
            local = s @ j[:, i] + h_rows[:, i]
            s[:, i] = np.where(u[:, k, i] + np.tanh(beta * local) >= 0, 1.0, -1.0)
        yield s


def bpim_solve_many(
    models: list[BinaryIsingModel], cfg: SolverConfig, seeds
) -> list[SolveOutcome]:
    """Best-of-R p-bit annealing of models that share one coupling matrix."""
    betas = cfg.schedule.peak * cfg.schedule.ramp()

    def kernel(model, h_rows, rngs):
        return _bpim_sweeps(model.j_matrix, h_rows, betas, rngs)

    return _solve_many(kernel, models, cfg, seeds)


# ---------------------------------------------------------------------------
# symbol-native probabilistic sweeps


def _dpim_sweeps(
    model: PditModel, h_rows: np.ndarray, betas: np.ndarray, rngs: list[np.random.Generator]
):
    """Sequential p-dit sweeps; every site resamples among all M symbol values.

    The state of a row is [Re x; Im x], the layout of ``h_rows`` and of the
    model's ``j_matrix``, so site i has its axes at columns i and n + i.
    Each site update computes the two-axis local field once, forms the move
    costs toward every candidate from it, and draws the new value from the
    softmax of those costs. The live state is yielded after every sweep.
    """
    n = model.n
    j = model.j_matrix
    levels = model.pam_levels
    n_lev = levels.size
    # Flat candidate grid, real-axis major. Per-site candidate arrays are
    # (M, rows), so the reductions over the M candidates are whole-row vector
    # operations; cumsum must keep adding candidates in grid order, or the
    # draws (and the golden CSVs) change.
    l1g = np.repeat(levels, n_lev)
    l2g = np.tile(levels, n_lev)
    n_it = len(betas)
    rows = len(rngs)
    d = np.empty((rows, 2 * n))
    u = np.empty((rows, n_it, n))
    for r, rng in enumerate(rngs):
        # Drawn per site, (n, 2): the golden CSVs pin this draw order.
        d[r] = levels[rng.integers(0, n_lev, (n, 2))].T.ravel()
        u[r] = rng.random((n_it, n))
    # Per-site local-field columns: f = h_i + d @ field_cols[i] gives both axes.
    field_cols = np.stack([j[:n], j[n:]], axis=-1)
    for k, beta in enumerate(betas):
        for i in range(n):
            f = d @ field_cols[i]
            f1 = f[:, 0] + h_rows[:, i]
            f2 = f[:, 1] + h_rows[:, n + i]
            g = j[i, i]
            t1 = d[:, i] - l1g[:, None]
            t2 = d[:, n + i] - l2g[:, None]
            w = -beta * (t1 * f1 + t2 * f2 - 0.5 * g * (t1 * t1 + t2 * t2))
            w -= w.max(axis=0)
            p = np.exp(w)
            cdf = np.cumsum(p, axis=0)
            pick = (cdf < u[:, k, i] * cdf[-1]).sum(axis=0)
            d[:, i] = l1g[pick]
            d[:, n + i] = l2g[pick]
        yield d


def dpim_solve_many(models: list[PditModel], cfg: SolverConfig, seeds) -> list[SolveOutcome]:
    """Best-of-R p-dit annealing of channel-sharing symbol-native models.

    Candidate values are each model's own PAM levels; best states are the
    (2N,) axis values [Re x; Im x].
    """
    betas = cfg.schedule.peak * cfg.schedule.ramp()

    def kernel(model, h_rows, rngs):
        return _dpim_sweeps(model, h_rows, betas, rngs)

    return _solve_many(kernel, models, cfg, seeds)


# ---------------------------------------------------------------------------
# oscillator phase dynamics


def _oim_drift(
    sin_phi: np.ndarray,
    cos_phi: np.ndarray,
    j: np.ndarray,
    h_rows: np.ndarray,
    params: OimParams,
) -> np.ndarray:
    # sin(phi_i - phi_j) factorized through the per-row sin/cos vectors.
    pair = sin_phi[:, :, None] * cos_phi[:, None, :] - cos_phi[:, :, None] * sin_phi[:, None, :]
    coupling = np.einsum("ij,rij->ri", j, np.tanh(10.0 * pair))
    coupling += h_rows * sin_phi
    binarize = 2.0 * sin_phi * cos_phi
    return -params.coupling * coupling - params.binarization * binarize


def _oim_sweeps(
    j: np.ndarray,
    h_rows: np.ndarray,
    temps: np.ndarray,
    params: OimParams,
    rngs: list[np.random.Generator],
):
    """Heun-integrated phase dynamics with annealed noise; yields sign(cos phase) per step."""
    n = j.shape[0]
    n_it = len(temps)
    rows = len(rngs)
    phi = np.empty((rows, n))
    noise = np.empty((rows, n_it, n))
    for r, rng in enumerate(rngs):
        phi[r] = rng.uniform(0.0, 2.0 * np.pi, n)
        noise[r] = rng.standard_normal((n_it, n))
    sqrt_dt = np.sqrt(_OIM_DT)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    for k, temp in enumerate(temps):
        kick = (temp * sqrt_dt) * noise[:, k]
        f0 = _oim_drift(sin_phi, cos_phi, j, h_rows, params)
        pred = phi + _OIM_DT * f0 + kick
        f1 = _oim_drift(np.sin(pred), np.cos(pred), j, h_rows, params)
        phi += 0.5 * _OIM_DT * (f0 + f1) + kick
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        yield np.where(cos_phi >= 0, 1.0, -1.0)


def oim_solve_many(
    models: list[BinaryIsingModel], cfg: SolverConfig, seeds
) -> list[SolveOutcome]:
    """Best-of-R oscillator runs, with a decaying noise level, of models that
    share one coupling matrix; spins are read out as sign(cos phase)."""
    temps = cfg.schedule.peak * (1.0 - cfg.schedule.ramp())

    def kernel(model, h_rows, rngs):
        return _oim_sweeps(model.j_matrix, h_rows, temps, oim_params(model.n), rngs)

    return _solve_many(kernel, models, cfg, seeds)


def oim_params(n: int) -> OimParams:
    """Oscillator constants for n spins: coupling 3.5 n^(-2/3), binarization 1.3 n^(-2/3)."""
    return OimParams(coupling=3.5 * n ** (-2.0 / 3.0), binarization=1.3 * n ** (-2.0 / 3.0))


PARADIGMS = {
    "bpim": Paradigm(
        modulations=("BPSK", "QAM"),
        model="binary",
        peak=lambda n, order: (
            np.sqrt(3.0) * n ** (-2.0 / 3.0) if order == 2 else 13.0 / (n * np.sqrt(order))
        ),
        solve=bpim_solve_many,
    ),
    "dpim": Paradigm(
        modulations=("QAM",),
        model="pdit",
        peak=lambda n, order: np.sqrt(2.0) * n ** (-4.0 / 5.0),
        solve=dpim_solve_many,
    ),
    "oim": Paradigm(
        modulations=("BPSK",),
        model="binary",
        peak=lambda n, order: 30.0,
        solve=oim_solve_many,
    ),
}
