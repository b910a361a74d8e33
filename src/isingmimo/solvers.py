"""Heuristic ground-state search: p-bit sweeps, p-dit sweeps, oscillator phases.

All three solvers run R independent replicas per model and report the best
energy seen across every sweep of every replica. One generator per model,
replicas as columns: each model's ``default_rng(seed)`` draws its R
replicas' initial states and then their noise, one replica per column. A
model's draw therefore depends only on its seed and R, bit for bit, never on
the batch or position it is solved in. Its states and energies are the same
too in every split of a batch that the tests try: whole, halves, one model
at a time and row chunks. That is measured, not built in: BLAS products such
as ``j[i] @ s`` may round a column's last bits apart at stack widths that
are not multiples of 8, and no outcome has moved.

The kernels operate on a stack of rows, one row per (model, replica), and
yield the rows' state after every iteration. Every kernel has one contract,
``kernel(model, h, schedule, x0, noise)``: it sweeps the couplings of
``model``, which all the rows share, with the (sites, rows) bias ``h``, one
sweep per schedule value, from the initial states ``x0`` with one noise
block per sweep, and reads any constant it needs from the model. The p-bit
and p-dit solvers share one, ``_level_sweeps``, which picks the kernel for a
model's levels; the oscillator kernel ``_oim_sweeps`` takes its gains from
:func:`oim_params`. Kernels draw nothing: each solver's draw,
``_level_draws`` or ``_oim_draws``, hands its draw rule to ``_draw``, the
one owner of the models' generators, which draws the initial states at once
and each sweep's uniforms as the sweep starts. So each ``*_solve_many`` is one
call of the one loop, ``_solve_many(kernel, draw, ramp, ...)``, which draws
each chunk of models, sweeps it with the kernel, scores each state and keeps
every row's best state, energy and iteration and its final energy. A batch
may hold the models of several channels. The coupling matrix of a MIMO
instance depends only on the channel, so consecutive models of one channel
share their kernel calls, with per-row bias vectors, and a batch's kernel
calls are cut where the couplings change. ``_solve_many`` alone splits a
batch, into chunks cut where the couplings or the levels change and where a
chunk would hold more than ``_MAX_STATE`` state entries. Each solver has one
batched entry point, ``*_solve_many``, with the signature ``(models, cfg,
seeds, peaks=None)``. :data:`PARADIGMS` holds one :class:`Paradigm` record
per solver, and :func:`solve_many` dispatches on its name.

Each solver fixes its own ramp direction and constants: the p-bit and p-dit
sweeps raise the inverse temperature to the schedule's peak, and the
oscillator dynamics lower the noise level from it to zero, with constants
from :func:`oim_params` scaled by the model size. Every model anneals to its
own peak: ``cfg.schedule.peak``, unless a call gives one peak per model, as
the annealing-peak sweep solves one instance at all its peaks in one call. A
kernel takes one (rows,) schedule value per sweep, the ramp factor times each
row's peak, made as the sweep starts; each product is the float a one-peak
solve uses, so a model's outcome does not depend on the peaks of the others.

A solve's rows stay sites-major, (sites, rows), from the draw to the best
state: initial states, bias and each sweep's noise are (sites, rows), the
oscillator's noise (n + n % 2, rows) with one padding row on odd n, and each
kernel yields its live state, which ``_solve_many`` scores and keeps as it
is. The noise is an iterable of one block of uniforms per sweep, drawn as
the sweep starts, so a kernel call holds a few (sites, rows) arrays and
nothing that grows with the number of iterations; a kernel takes one block
per schedule step and raises ``ValueError`` on a source that runs short or
long. A site step reads and writes contiguous per-site rows: the p-bit and
p-dit kernels take a site's local fields as one product of its contiguous
rows of J (J is symmetric) with the state, and read the site's bias and
noise as contiguous rows. No kernel writes its inputs.

A p-dit site's Re and Im axes are drawn together, each from its own
conditional over the sqrt(M) PAM levels. This is the site's exact
conditional because the one coupling that could join its axes,
J[i, n + i] (J12's diagonal), is 0 by construction. A two-level axis
(4-QAM) is a p-bit: the heat-bath draw over -1 and +1 is the p-bit rule
U + tanh(beta g) >= 0, g the axis's field without its own coupling, so
``_level_sweeps`` sweeps two-level models, binary ones and 4-QAM p-dit ones,
with the p-bit kernel and keeps the softmax kernel for four or more levels.
Both kernels read one uniform per axis and sweep, and at two levels they
pick the same level except where that uniform lies within rounding of its
threshold.

The oscillator drift is one object per kernel call, ``_OimDrift(j, h,
params)``, applied to the phases as ``drift(sin_phi, cos_phi, out)``. It
visits each unordered site pair once: the pairs form the circulant bands
(i, i+d mod n), d = 1..n//2, and each pair's odd coupling term enters both
its sites. In the sites-major layout each band is one contiguous block of a
doubled [x; x] buffer, and the drift runs over row chunks whose band
buffers fit a fixed byte budget.

Precision: every solver draws float64 uniforms, and the oscillator forms
its normals from them in float32, ``_OIM_FLOAT``. ``_draw`` fills each
sweep's block with the ``default_rng(seed)`` stream of ``rng.random``, and
``_oim_draws`` takes the initial phases from ``rng.uniform``, all float64.
The oscillator turns each step's uniforms into its kick in float32 by the
Box-Muller transform (:func:`_oim_kicks`), and integrates in float32: its
phases, the kick, the Heun predictor, both drifts, the sines and cosines,
the drift's band buffers and its copies of J's band weights and of the
bias. Two things besides the draws stay float64: its yielded readout, +-1,
so ``_solve_many`` scores and keeps the states of every kernel alike, and
the models. A float32 phase rounds by about 1e-7 rad, far below a step's
noise kick of up to 30 sqrt(dt) = 3 rad, and a float32 kick is a standard
normal to within its rounding, so the heuristic is the same; a trajectory
parts from a float64 integration's as the noise amplifies the rounding, so
the two agree in distribution, not state by state. The p-bit and p-dit
kernels stay float64 and read the uniforms as drawn. numpy's float32 sin,
cos, log and tanh follow its SIMD dispatch, as its float64 tanh already
does: seeded oscillator outcomes repeat on one machine, and a CPU on
another SIMD path may round them apart.

Threads: every solve runs its chunks in order on its calling thread, under
the caller's BLAS setting. The one parallel path is one call,
:func:`pool_map`, which maps a function over items on worker processes that
each run one BLAS thread: ``harness.run_ber_sweep`` maps channels through it
and ``harness.beta_sweep`` maps instances, and a model's outcome does not
depend on the process that solves it. The harness calls it only with two
or more workers, and runs one worker or one item in its own process. The
p-bit and p-dit site steps hold the GIL, and an oscillator step is some 40
short numpy calls, so threads within one solve paid only on large batches;
on a shared 2-core x86-64 machine two processes over whole fit-beta
instances beat the oscillator's thread groups at n = 16 to 64
(``BENCH_38.json``).

The fork rule: a pool worker gets its one BLAS thread by being forked from a
caller whose OpenBLAS already runs one thread, so that it inherits the count
and never sets it. OpenBLAS shuts its thread pool down across a fork, and
setting the count in the forked child starts the pool again: a second native
thread that busy-waits before it sleeps, for about 0.13 s of CPU on a 2-core
x86-64 machine. So this module alone sets numpy's BLAS thread count, and
only when the count changes, and :func:`pool_map` alone makes the worker
processes: it puts the caller on one BLAS thread before the pool starts and
gives the caller its count back when the map ends. A worker started by
``spawn`` or ``forkserver`` inherits no count, and the pool's initializer
sets it there.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ising_map import IsingModel, ising_energies

__all__ = [
    "AnnealSchedule",
    "OimParams",
    "SolverConfig",
    "SolveOutcome",
    "Paradigm",
    "PARADIGMS",
    "default_parameters",
    "oim_params",
    "require_ints",
    "require_peaks",
    "solve_many",
    "bpim_solve_many",
    "dpim_solve_many",
    "oim_solve_many",
    "pool_map",
]

DEFAULT_REPLICAS = 64
DEFAULT_ITERATIONS = 100

# Upper bound on the state entries, sites x rows, of one kernel call, which
# holds a few (sites, rows) arrays; larger batches are solved in chunks of
# models.
_MAX_STATE = 1_000_000

# Time step of the oscillator phase integration.
_OIM_DT = 0.01

# Upper bound on the oscillator drift's band buffers; larger row stacks are
# processed in row chunks.
_OIM_BAND_BYTES = 4_000_000

# The float type of the oscillator's phase integration (see the module's
# precision contract).
_OIM_FLOAT = np.float32


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
        require_peaks(self.peak)
        require_ints(n_iterations=self.n_iterations)
        if self.n_iterations < 1:
            raise ValueError("schedule needs at least one iteration")

    def ramp(self) -> np.ndarray:
        """k / n_iterations at iterations k = 1..n_iterations."""
        return np.arange(1, self.n_iterations + 1) / self.n_iterations


def require_ints(**values) -> None:
    """Counts, orders and seeds are ints, never rounded; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int; got {value!r}")


def require_peaks(peaks) -> np.ndarray:
    """``peaks``, one annealing peak or several, as floats; each must be
    positive and finite."""
    peaks = np.asarray(peaks, dtype=float)
    if not ((peaks > 0) & (peaks < np.inf)).all():
        raise ValueError(f"annealing needs a positive, finite peak; got {peaks.tolist()!r}")
    return peaks


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
        require_ints(replicas=self.replicas)
        if self.replicas < 1:
            raise ValueError("need at least one replica")


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """One model's result over its replicas.

    ``best_state`` is in the model's own variables: spins of a binary model,
    or the 2N axis values [Re x; Im x] of a p-dit model. Energies leave out
    the model's ``offset``.
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
    solve: Callable  # the batched solver, (models, cfg, seeds, peaks=None) -> outcomes


def _paradigm(name: str) -> Paradigm:
    try:
        return PARADIGMS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
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


def solve_many(
    paradigm: str, models, cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Solve models with the named paradigm's solver.

    The models may come from several channels; the kernel calls are cut
    where the couplings change. Each model anneals to its own entry of
    ``peaks``, one per model, which defaults to ``cfg.schedule.peak`` for
    every model.
    """
    return _paradigm(paradigm).solve(models, cfg, seeds, peaks)


def _draw(seeds, cfg: SolverConfig, sites: int, initial, noise_rows: int):
    """The initial states and the lazy noise of one solve, from each model's
    one generator ``default_rng(seed)``, made here and nowhere else.

    Each model draws its initial states ``initial(rng, (sites, replicas))``
    at once. The noise yields one (noise_rows, rows) block of float64
    uniforms on [0, 1) per sweep, filled by ``rng.random`` when it is asked
    for; a generator fills its stream in order, so the blocks are bit for
    bit the slices of one (n_iterations, noise_rows, replicas) fill. A
    model's replicas are its consecutive columns. Every block is one reused
    buffer, valid until the next is asked for.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x0 = np.concatenate([initial(rng, (sites, cfg.replicas)) for rng in rngs], axis=1)

    def noise():
        block = np.empty((noise_rows, x0.shape[1]))
        # numpy fills no strided ``out``: each model fills a scratch that is
        # copied into its columns.
        scratch = np.empty((noise_rows, cfg.replicas))
        for _ in range(cfg.schedule.n_iterations):
            for lo, rng in zip(range(0, block.shape[1], cfg.replicas), rngs):
                block[:, lo : lo + cfg.replicas] = rng.random(out=scratch)
            yield block

    return x0, noise()


def _solve_many(
    kernel, draw, ramp: np.ndarray, models, cfg: SolverConfig, seeds, peaks
) -> list[SolveOutcome]:
    """The annealing loop of every batched solver, and the one place that
    splits a batch: into chunks, one kernel call each, cut where the
    couplings or the levels change and where a chunk reaches as many models
    as fit in ``_MAX_STATE`` state entries. Two models share a kernel call
    when their ``j_matrix`` is one object or equal arrays and their
    ``pam_levels`` are equal: a p-dit J does not depend on the QAM order, and
    a chunk is drawn and swept on its first model's levels, by a kernel
    chosen for them. The chunks are solved in order on the calling thread,
    so the outcomes come in model order.

    ``kernel``, by the module's kernel contract, sweeps the draws of a
    chunk's seeds, ``draw(model, seeds, cfg)``, on the chunk's first model,
    whose couplings every model of the chunk shares. The schedule is one
    (rows,) vector per sweep, made as the sweep starts: the solver's
    ``ramp`` factor for that sweep times each row's peak, its model's entry
    of ``peaks``, which is ``cfg.schedule.peak`` for every model when
    ``peaks`` is None. Each row keeps its first state of lowest energy, and
    the energy of its last state is its final energy.
    """
    if not models:
        raise ValueError("need at least one model")
    if len(seeds) != len(models):
        raise ValueError("need one seed per model")
    peaks = np.full(len(models), cfg.schedule.peak) if peaks is None else require_peaks(peaks)
    if peaks.shape != (len(models),):
        raise ValueError("need one peak per model")
    chunks, lo = [], 0
    for hi in range(1, len(models) + 1):
        per_call = max(1, _MAX_STATE // (models[lo].h_vector.size * cfg.replicas))
        if hi == len(models) or hi - lo == per_call or not _share_call(models[lo], models[hi]):
            chunks.append((lo, hi))
            lo = hi

    outcomes = []
    for lo, hi in chunks:
        h = np.repeat(np.stack([m.h_vector for m in models[lo:hi]], axis=1), cfg.replicas, axis=1)
        best_s = np.empty(h.shape)
        best_e = np.full(h.shape[1], np.inf)
        best_it = np.zeros(h.shape[1], dtype=int)
        improved = np.empty(h.shape[1], dtype=bool)
        row_peaks = np.repeat(peaks[lo:hi], cfg.replicas)
        # ramp_k * peak is peak * ramp_k bit for bit.
        schedule = (factor * row_peaks for factor in ramp)
        sweeps = kernel(models[lo], h, schedule, *draw(models[lo], seeds[lo:hi], cfg))
        j = models[lo].j_matrix
        for it, s in enumerate(sweeps, 1):
            e = ising_energies(s, j, h)
            # Late in a solve most sweeps improve no row.
            if np.less(e, best_e, out=improved).any():
                np.copyto(best_e, e, where=improved)
                np.copyto(best_s, s, where=improved)
                np.copyto(best_it, it, where=improved)
        for first in range(0, (hi - lo) * cfg.replicas, cfg.replicas):
            rows = slice(first, first + cfg.replicas)
            best = first + int(np.argmin(best_e[rows]))
            outcomes.append(
                SolveOutcome(
                    best_state=best_s[:, best].copy(),
                    best_energy=float(best_e[best]),
                    final_energies=e[rows].copy(),
                    best_iteration=int(best_it[best]),
                    n_iterations=cfg.schedule.n_iterations,
                )
            )
    return outcomes


def _share_call(a, b) -> bool:
    """Whether models ``a`` and ``b`` can share a kernel call: equal levels,
    and one coupling matrix, one object or equal arrays."""
    return np.array_equal(a.pam_levels, b.pam_levels) and (
        a.j_matrix is b.j_matrix or np.array_equal(a.j_matrix, b.j_matrix)
    )


def _level_draws(model, seeds, cfg: SolverConfig):
    """The draws of the p-bit and p-dit sweeps: each site starts at one of
    the model's ``pam_levels``, uniformly, and each sweep draws uniforms."""
    levels = model.pam_levels

    def initial(rng, size):
        return levels[rng.integers(0, levels.size, size)]

    sites = model.h_vector.size
    return _draw(seeds, cfg, sites, initial, sites)


def _level_sweeps(model: IsingModel, h: np.ndarray, betas, x0, u):
    """The p-bit and p-dit sweeps of one kernel call: :func:`_pbit_sweeps`
    where the model's levels are the spin levels -1 and +1, as every spin and
    every 4-QAM axis is, and the softmax :func:`_dpim_sweeps` on four or more
    levels."""
    two_level = np.array_equal(model.pam_levels, (-1.0, 1.0))
    return (_pbit_sweeps if two_level else _dpim_sweeps)(model, h, betas, x0, u)


# ---------------------------------------------------------------------------
# p-bit sweeps: binary spins and two-level p-dits


def _pbit_sweeps(model: IsingModel, h: np.ndarray, betas, s0, u):
    """Sequential p-bit sweeps of ``model``'s sites from the state ``s0``
    with the bias ``h``, both (sites x axes, rows), one per beta, each row's
    inverse temperature (rows,), with its block of the uniforms ``u``; yields
    the state after each.

    A site is one spin of a binary model, or the Re and Im axes of one p-dit
    of a two-level p-dit model (4-QAM, levels -1 and +1), which the p-bit
    rule draws together: the one coupling that could join them, J[i, n + i],
    is 0 by construction. An axis takes +1 where U + tanh(beta * g) >= 0 and
    -1 elsewhere, with U = 2u - 1 and g its field without its own coupling:
    the heat-bath draw over two levels. U is never -0.0, so neither is that
    sum, and ``copysign`` gives exactly this sign.

    State, bias and each sweep's uniforms live sites-major, so site i's axes
    are the contiguous rows i (and n + i), and both their fields are one
    product of J's matching rows, (axes, width), with the state. A binary
    J's diagonal is 0, so its rows are a view of J; a p-dit J keeps its
    diagonal, so its site rows are one copy with J[i, i] and J[n + i, n + i]
    set to 0. Each sweep's uniforms are turned into U once, and its (rows,)
    beta is written once into an (axes, rows) buffer, so that every site
    step multiplies arrays of one shape. Each site's J rows, bias, U and
    state rows are bound once per call, its bias rows side by side in one
    contiguous block (a copy for two axes). The yielded array is the live C-contiguous state: the
    next sweep rewrites it, and the caller only reads it.
    """
    sites, rows = model.n, s0.shape[1]
    n_axes = s0.shape[0] // sites
    site_rows = model.j_matrix.reshape(n_axes, sites, -1).swapaxes(0, 1)
    if n_axes > 1:
        site_rows = site_rows.copy()
        own = np.arange(sites)
        for axis in range(n_axes):
            site_rows[own, axis, axis * sites + own] = 0.0
    s = s0.copy()
    v = np.empty(s.shape)
    # Site i's axes and U are the (axes, rows) basic-index views [:, i].
    axes, v_axes = (x.reshape(n_axes, sites, rows) for x in (s, v))
    h_sites = np.ascontiguousarray(h.reshape(n_axes, sites, rows).swapaxes(0, 1))
    steps = [(site_rows[i], h_sites[i], v_axes[:, i], axes[:, i]) for i in range(sites)]
    field, beta_rows = np.empty((2, n_axes, rows))
    for beta, u_k in zip(betas, u, strict=True):
        # rng.uniform(-1, 1) is -1 + 2u, bit for bit.
        np.multiply(u_k, 2.0, out=v)
        v -= 1.0
        beta_rows[...] = beta
        for j_rows, h_rows, v_rows, s_rows in steps:
            np.matmul(j_rows, s, out=field)
            field += h_rows
            field *= beta_rows
            np.tanh(field, out=field)
            field += v_rows
            np.copysign(1.0, field, out=s_rows)
        yield s


def bpim_solve_many(
    models: list[IsingModel], cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Best-of-R p-bit annealing of models, one kernel call per run of
    models that share one coupling matrix."""
    return _solve_many(_level_sweeps, _level_draws, cfg.schedule.ramp(), models, cfg, seeds, peaks)


# ---------------------------------------------------------------------------
# symbol-native probabilistic sweeps


def _dpim_sweeps(model: IsingModel, h: np.ndarray, betas, d0, u):
    """Sequential p-dit sweeps from the axes ``d0`` (2n, rows), with the
    bias ``h`` (2n, rows), one per beta, each row's inverse temperature
    (rows,), with its (2n, rows) block of the uniforms ``u``; each site
    redraws its two axes, each from the softmax of its own move costs over
    the PAM levels (exact as J[i, n + i] = 0). A ``dpim`` solve runs it on
    models of four or more levels (16-QAM and up); two-level axes are p-bits
    and sweep with :func:`_pbit_sweeps`, which draws the same level from the
    same uniform except where the uniform lies within rounding of its
    threshold, so this kernel serves as its reference at two levels.

    A state column is [Re x; Im x], the layout of ``h`` and of the model's
    ``j_matrix``. State, bias and each sweep's uniforms live sites-major,
    (2n, rows), so site i's axes and their uniforms are the contiguous rows
    i and n + i, and both their fields are one product of the rows J[i] and
    J[n + i] (J is symmetric) with the state. The yielded array is the live
    C-contiguous (2n, rows) state: the next sweep rewrites it, and the
    caller only reads it.

    The softmax CDF is built by L - 1 in-place adds over the level planes:
    the same sequential sums as ``np.cumsum`` along the levels, which numpy
    runs as a scalar loop. A draw picks the number of CDF values below
    u * c, with c the total, the last plane; u < 1 gives u * c <= c even
    after rounding, so the last plane never counts and is not compared.
    """
    n, rows = model.n, d0.shape[1]
    j = model.j_matrix
    levels = model.pam_levels
    n_lev = levels.size
    d = d0.copy()
    # Site i's axes are the (2, rows) basic-index views [:, i]: no gather.
    axes = d.reshape(2, n, rows)
    h_axes = h.reshape(2, n, rows)
    # field_rows[i] @ d gives both axes' local fields.
    field_rows = np.stack([j[:n], j[n:]], axis=1)
    field, threshold = np.empty((2, 2, rows))
    peak = np.empty((2, rows))
    below = np.empty((n_lev - 1, 2, rows), dtype=bool)
    pick = np.empty((2, rows), dtype=np.intp)
    # Per (level, axis, row): steps t = x - level, then the move costs
    # -beta t (f - J[i, i] t / 2) turned in place into their softmax CDF.
    t, w = np.empty((2, n_lev, 2, rows))
    planes = list(w)
    level_col = levels[:, None, None]
    # Each sweep's beta as (2, rows) rows, and each site's J[i, i], which its
    # two axes share, scaled by 0.5 beta as (n, 2, rows) rows: products
    # commute, so each is (0.5 beta) J[i, i] bit for bit. Arrays of one shape
    # multiply faster than a (rows,) vector broadcast.
    beta_rows = np.empty((2, rows))
    half_beta_j = np.empty((n, 2, rows))
    j_diag = np.diagonal(j)[:n, None, None]
    for beta, u_k in zip(betas, u, strict=True):
        u_axes = u_k.reshape(2, n, rows)
        beta_rows[...] = beta
        np.multiply(j_diag, 0.5 * beta, out=half_beta_j)
        for i in range(n):
            x = axes[:, i]
            np.matmul(field_rows[i], d, out=field)
            field += h_axes[:, i]
            field *= beta_rows
            np.subtract(x, level_col, out=t)
            np.multiply(t, half_beta_j[i], out=w)
            w -= field
            w *= t
            np.maximum.reduce(w, axis=0, out=peak)
            w -= peak
            np.exp(w, out=w)
            for lower, plane in zip(planes, planes[1:]):
                plane += lower
            np.multiply(u_axes[:, i], planes[-1], out=threshold)
            np.less(w[:-1], threshold, out=below)
            np.add.reduce(below, axis=0, out=pick)
            # The indices are in range; "clip" lets take write straight into x.
            np.take(levels, pick, out=x, mode="clip")
        yield d


def dpim_solve_many(
    models: list[IsingModel], cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Best-of-R p-dit annealing of symbol-native models, one kernel call per
    run of models that share one coupling matrix and one level set.

    Candidate values are each model's own PAM levels; best states are the
    (2N,) axis values [Re x; Im x].
    """
    return _solve_many(_level_sweeps, _level_draws, cfg.schedule.ramp(), models, cfg, seeds, peaks)


# ---------------------------------------------------------------------------
# oscillator phase dynamics


class _OimDrift:
    """The phase velocities of one oscillator kernel call's sites-major
    (n, rows) stack, on the couplings ``j`` with the (n, rows) bias ``h`` and
    the gains ``params``: ``drift(sin_phi, cos_phi, out)`` takes the sines
    and cosines of the phases and writes and returns the velocities in
    ``out``.

    Site i moves at -coupling * (sum_j J_ij tanh(10 sin(phi_i - phi_j)) +
    h_i sin(phi_i)) - binarization * sin(2 phi_i). sin and tanh are odd, so
    each pair's tanh is taken once, in its circulant band, and enters both
    its sites. Band d = 1..n//2 holds the site pairs (i, i+d mod n),
    i = 0..n-1, so every unordered pair lies in exactly one band; on even n
    the last band meets each pair twice, and its second half has weight 0. A
    pair's value enters its first site i with weight J[i, i+d] and its second
    site k = i+d negated, with weight -J[k-d, k]; J must be symmetric, and
    its diagonal never enters. ``weights[i]`` holds site i's 2 x bands
    weights, first-site ones first. Weights, bias and buffers are
    ``_OIM_FLOAT`` copies. The rows are taken in chunks whose buffers (see
    :meth:`_buffers`), all of them, fit ``_OIM_BAND_BYTES``, or hold one
    row.
    """

    def __init__(self, j: np.ndarray, h: np.ndarray, params: OimParams):
        n, rows = h.shape
        n_bands = n // 2
        sites = np.arange(n)
        shift = np.arange(1, n_bands + 1)[:, None]
        j_to = j[sites, (sites + shift) % n]
        if n % 2 == 0:
            j_to[n_bands - 1, n_bands:] = 0.0
        # Flat (band, site) index of the first site of the pair that ends
        # at site k in band d.
        self.from_index = ((shift - 1) * n + (sites - shift) % n).ravel()
        j_from = j_to.ravel()[self.from_index].reshape(j_to.shape)
        weights = np.concatenate([j_to, -j_from]).T[:, None, :]
        self.weights = np.ascontiguousarray(weights, dtype=_OIM_FLOAT)
        self.coupling = params.coupling
        self.binarization = params.binarization
        h = np.ascontiguousarray(h, dtype=_OIM_FLOAT)
        # The bytes of one row of the chunk buffers: sin_cos 4n, pairs
        # 2 x bands x n, product n and term n entries.
        per_row = np.dtype(_OIM_FLOAT).itemsize * (6 * n + 2 * n_bands * n)
        width = max(1, min(rows, _OIM_BAND_BYTES // per_row))
        # (rows, bias, buffers) per chunk; all full chunks share one set of
        # buffers.
        full = self._buffers(n, n_bands, width)
        self.chunks = []
        for lo in range(0, rows, width):
            hi = min(lo + width, rows)
            buffers = full if hi - lo == width else self._buffers(n, n_bands, hi - lo)
            self.chunks.append((slice(lo, hi), h[:, lo:hi], buffers))

    @staticmethod
    def _buffers(n: int, n_bands: int, width: int) -> tuple:
        """The work buffers of a chunk of ``width`` rows, as the views that
        the drift reads them through. Every buffer is sites-major, so that a
        band is one contiguous block:

        - ``sin_cos`` (2, 2, n, width) holds [sin; sin] and [cos; cos] of the
          chunk's phases, doubled along the sites, so that every band's
          partner phases x[i + d mod n] are one zero-copy strided view,
          ``partners``;
        - ``pairs`` (2, bands, n, width) holds each band's values at their
          first site, and the same values gathered to their second site:
          ``pairs[1, d-1, k] = pairs[0, d-1, k-d mod n]``; ``first`` and
          ``second`` are its halves as (bands x n, width) rows, and
          ``by_site`` is site i's (2 x bands, width) block;
        - ``product`` holds the band product, one (1, width) row per site,
          and ``term`` one term of the drift at a time.
        """
        sin_cos = np.empty((2, 2, n, width), dtype=_OIM_FLOAT)
        plane, _, site, row = sin_cos.strides
        # [cos; sin] and [sin; cos] at x[i + d], d = 1..n_bands, so that one
        # product with the heads, [sin; cos] at x[i], gives sin_i cos_j and
        # cos_i sin_j.
        partners = np.lib.stride_tricks.as_strided(
            sin_cos[::-1, :, 1:], (2, n_bands, n, width), (-plane, site, site, row)
        )
        pairs = np.empty((2, n_bands, n, width), dtype=_OIM_FLOAT)
        first, second = (x.reshape(-1, width) for x in pairs)
        by_site = pairs.reshape(-1, n, width).transpose(1, 0, 2)
        product = np.empty((n, 1, width), dtype=_OIM_FLOAT)
        term = np.empty((n, width), dtype=_OIM_FLOAT)
        return (*sin_cos, sin_cos[:, :1], partners, pairs, first, second, by_site, product, term)

    def __call__(self, sin_phi: np.ndarray, cos_phi: np.ndarray, out: np.ndarray) -> np.ndarray:
        for rows, h, buffers in self.chunks:
            sin2, cos2, heads, partners, pairs, first, second, by_site, product, term = buffers
            np.copyto(sin2, sin_phi[:, rows])
            np.copyto(cos2, cos_phi[:, rows])
            np.multiply(heads, partners, out=pairs)
            first -= second  # sin(phi_i - phi_{i+d})
            first *= 10.0
            np.tanh(first, out=first)
            # The indices are in range; "clip" lets take write straight into out.
            np.take(first, self.from_index, axis=0, out=second, mode="clip")
            coupling = np.matmul(self.weights, by_site, out=product)[:, 0]
            coupling += np.multiply(h, sin2[0], out=term)
            coupling *= -self.coupling
            # binarization * (2 sin cos): a factor 2 is exact wherever it is
            # applied, so this is bit for bit the same.
            binarize = np.multiply(sin2[0], cos2[0], out=term)
            binarize *= 2.0 * self.binarization
            np.subtract(coupling, binarize, out=out[:, rows])
        return out


def _oim_draws(model: IsingModel, seeds, cfg: SolverConfig):
    """The draws of the oscillator: each phase starts uniform on [0, 2 pi),
    and each step draws one uniform per site, plus one padding row on odd n,
    from which :func:`_oim_kicks` forms the step's normal kick."""

    def initial(rng, size):
        return rng.uniform(0.0, 2.0 * np.pi, size)

    return _draw(seeds, cfg, model.n, initial, model.n + model.n % 2)


def _oim_kicks(temps, uniforms, shape: tuple) -> Iterator[np.ndarray]:
    """The Langevin kicks of the oscillator's (n, rows) phases, one per noise
    level in ``temps``, each row's level (rows,), from the step's
    (n + n % 2, rows) block of ``uniforms``: standard normals by the
    Box-Muller transform, scaled by temp sqrt(dt), in ``_OIM_FLOAT``.

    With m = ceil(n / 2), the first m rows of a block give the radii
    sqrt(-2 ln(1 - u)) and the next m rows the angles 2 pi u; the cosines
    fill sites [0, m) and the sines sites [m, n), so on odd n the last
    angle's sine is left out. Each column's kick comes from that column's
    uniforms alone. 1 - u is taken in float64, where it is exact, and
    rounded to the float as a positive number, so every radius is finite:
    at most sqrt(106 ln 2), about 8.6. The yielded kick is one reused
    buffer, valid until the next is asked for.
    """
    n, rows = shape
    half = (n + 1) // 2
    kick = np.empty(shape, dtype=_OIM_FLOAT)
    cos_kick, sin_kick = kick[:half], kick[half:]
    radius, angle = np.empty((2, half, rows), dtype=_OIM_FLOAT)
    scale = np.empty(rows, dtype=_OIM_FLOAT)
    sqrt_dt = np.sqrt(_OIM_DT)
    for temp, u in zip(temps, uniforms, strict=True):
        np.subtract(1.0, u[:half], out=radius)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        np.multiply(temp, sqrt_dt, out=scale)
        radius *= scale
        np.multiply(u[half:], 2.0 * np.pi, out=angle)
        np.cos(angle, out=cos_kick)
        cos_kick *= radius
        np.sin(angle[: n - half], out=sin_kick)
        sin_kick *= radius[: n - half]
        yield kick


def _oim_sweeps(model: IsingModel, h: np.ndarray, temps, phi0, noise):
    """Heun-integrated phase dynamics of ``model`` from the phases ``phi0``
    (n, rows), with the bias ``h`` (n, rows) and the gains of
    :func:`oim_params`, one step per noise level in ``temps``, each row's
    level (rows,), with the kick :func:`_oim_kicks` forms from the step's
    (n + n % 2, rows) block of the uniforms ``noise``; yields sign(cos
    phase) per step.

    Phases and bias are sites-major, (n, rows), the layout of
    :class:`_OimDrift`. The phases are integrated in ``_OIM_FLOAT`` (see the
    module's precision contract): ``phi0`` is rounded to it once. A step
    writes into buffers made once per call, in the operation order of
    pred = phi + dt f0 + kick and phi += 0.5 dt (f0 + f1) + kick: IEEE sums
    and products commute, so each in-place form is that expression bit for
    bit. The yielded float64 readout is one C-contiguous (n, rows) buffer:
    the next step rewrites it, and the caller only reads it.
    """
    phi = phi0.astype(_OIM_FLOAT)
    pred, f0, f1, sin_x, cos_x = np.empty((5, *phi.shape), dtype=_OIM_FLOAT)
    readout = np.empty(phi.shape)
    drift = _OimDrift(model.j_matrix, h, oim_params(model.n))
    # sin_x and cos_x hold the sines and cosines of phi, except while they
    # hold those of pred for its drift f1.
    np.sin(phi, out=sin_x)
    np.cos(phi, out=cos_x)
    for kick in _oim_kicks(temps, noise, phi.shape):
        drift(sin_x, cos_x, f0)
        np.multiply(f0, _OIM_DT, out=pred)
        pred += phi
        pred += kick
        np.sin(pred, out=sin_x)
        np.cos(pred, out=cos_x)
        drift(sin_x, cos_x, f1)
        f0 += f1
        f0 *= 0.5 * _OIM_DT
        f0 += kick
        phi += f0
        np.sin(phi, out=sin_x)
        np.cos(phi, out=cos_x)
        # cos of a finite phase is never +-0, so its sign is +1 exactly
        # where cos >= 0.
        yield np.copysign(1.0, cos_x, out=readout)


# OpenBLAS thread-count (getter, setter) symbols, by the names its builds
# export, in order of preference.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas() -> tuple | None:
    """The thread-count getter and setter of numpy's BLAS, if it is an
    OpenBLAS that exports both, as (get, set); None otherwise.

    ``dlsym`` on numpy's own extension searches that library's dependency
    tree, so this finds the BLAS numpy loaded whatever its file is called.
    """
    core = getattr(np, "_core", None) or np.core  # numpy 1.x names it core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for get_name, set_name in _OPENBLAS_THREADS:
        get_threads = getattr(lib, get_name, None)
        set_threads = getattr(lib, set_name, None)
        if get_threads is not None and set_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            return get_threads, set_threads
    return None


def _set_blas_threads(count: int) -> int:
    """Set numpy's OpenBLAS to ``count`` threads in this process and return
    the count it had; ``count`` itself, with nothing set, where numpy's BLAS
    is not an OpenBLAS. The setter is called only when the count changes, as
    the fork rule asks."""
    blas = _openblas()
    before = count if blas is None else blas[0]()
    if before != count:
        blas[1](count)
    return before


def pool_map(function: Callable, items, workers: int) -> list:
    """``function`` of each of ``items``, in item order, computed on
    ``workers`` processes that each run one BLAS thread, as workers that
    share the cores should: the one parallel path, over channels or over
    instances, never within one solve. The caller's BLAS runs one thread
    while the pool lives, so a forked worker inherits that count (the fork
    rule); the caller's count comes back when the map ends, also when a
    worker raises, and that restore starts the caller's OpenBLAS pool
    again."""
    before = _set_blas_threads(1)
    try:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
        ) as pool:
            return list(pool.map(function, items))
    finally:
        _set_blas_threads(before)


def oim_solve_many(
    models: list[IsingModel], cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Best-of-R oscillator runs, with a decaying noise level, of models that
    may come from several channels, one kernel call per run of models that
    share one coupling matrix; spins are read out as sign(cos phase)."""
    ramp = 1.0 - cfg.schedule.ramp()
    return _solve_many(_oim_sweeps, _oim_draws, ramp, models, cfg, seeds, peaks)


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
