"""Heuristic ground-state search: p-bit sweeps, p-dit sweeps, oscillator phases.

All three solvers run R independent replicas per model and report the best
energy seen across every sweep of every replica. One generator per model,
replicas as columns: each model's ``default_rng(seed)`` draws its R
replicas' initial states and then their noise, one replica per column. A
model's draw therefore depends only on its seed and R, bit for bit, never on
the batch or position it is solved in. Its states and energies are the same
too in every split of a batch that the tests try: whole, halves, one model
at a time, row chunks and thread groups. That is measured, not built in:
BLAS products such as ``j[i] @ s`` may round a column's last bits apart at
stack widths that are not multiples of 8, and no outcome has moved.

The kernels operate on a stack of rows, one row per (model, replica), and
yield the rows' state after every iteration. They draw nothing: each
solver's draw, ``_level_draws`` or ``_oim_draws``, hands its draw rule to
``_draw``, the one owner of the models' generators, which draws the initial
states at once and each sweep's noise as the sweep starts. One loop,
``_solve_many``, draws each chunk of models, sweeps it with the kernel,
scores each state and keeps every row's best state, energy and iteration
and its final energy. Because the coupling matrix of a MIMO instance
depends only on the channel, the models of one channel share their kernel
calls, with per-row bias vectors; a call takes as many models as fit in
``_MAX_STATE`` state entries. Each solver has one such batched entry point,
``*_solve_many``, with the signature ``(models, cfg, seeds, peaks=None)``.
:data:`PARADIGMS` holds one :class:`Paradigm` record per solver, and
:func:`solve_many` dispatches on its name.

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
state: initial states, bias and each sweep's noise are (sites, rows), and
each kernel yields its live state, which ``_solve_many`` scores and keeps as
it is. The noise is an iterable of one (sites, rows) block per sweep, drawn
as the sweep starts, so a kernel call holds a few (sites, rows) arrays and
nothing that grows with the number of iterations; a kernel takes one block
per schedule step and raises ``ValueError`` on a source that runs short or
long. A site step reads and writes contiguous per-site rows: the p-bit and
p-dit kernels take a site's local field as one product of the contiguous
row J[i] (J is symmetric) with the state, and read the site's bias and noise
as contiguous rows. No kernel writes its inputs.

The p-dit kernel draws a site's Re and Im axes together, each from its own
softmax over the sqrt(M) PAM levels. This is the site's exact conditional
because the one coupling that could join its axes, J[i, n + i] (J12's
diagonal), is 0 by construction.

The oscillator drift visits each unordered site pair once: the pairs form
the circulant bands (i, i+d mod n), d = 1..n//2, and each pair's odd
coupling term enters both its sites. In the sites-major layout each band is
one contiguous block of a doubled [x; x] buffer, and the drift runs over row
chunks whose band buffers fit a fixed byte budget.

Threads: only the oscillator solver runs a batch on several threads, one
contiguous group of models each, as many as the smallest of numpy's BLAS
thread count, the cores this process may run on and the models. Most of an
oscillator step is numpy's sin, cos and tanh, which release the GIL; the
p-bit and p-dit site steps hold it, and split over two threads they ran
slower than on one. While the groups run, numpy's OpenBLAS runs one thread,
so a process that runs one BLAS thread, such as a pool worker, solves on one
thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .ising_map import BinaryIsingModel, PditModel, ising_energies, require_ints

__all__ = [
    "AnnealSchedule",
    "OimParams",
    "SolverConfig",
    "SolveOutcome",
    "Paradigm",
    "PARADIGMS",
    "default_parameters",
    "oim_params",
    "require_peaks",
    "solve_many",
    "bpim_solve_many",
    "dpim_solve_many",
    "oim_solve_many",
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
    solve: Callable  # the batched solver, (models, cfg, seeds, peaks=None) -> outcomes


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


def solve_many(
    paradigm: str, models, cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Solve models that share one channel with the named paradigm's solver.

    Each model anneals to its own entry of ``peaks``, one per model, which
    defaults to ``cfg.schedule.peak`` for every model.
    """
    return _paradigm(paradigm).solve(models, cfg, seeds, peaks)


def _draw(seeds, cfg: SolverConfig, sites: int, initial, fill: str):
    """The initial states and the lazy noise of one solve, from each model's
    one generator ``default_rng(seed)``, made here and nowhere else.

    Each model draws its initial states ``initial(rng, (sites, replicas))``
    at once. The noise yields one (sites, rows) block per sweep, filled when
    it is asked for by the generator method named ``fill``; a generator
    fills its stream in order, so the blocks are bit for bit the slices of
    one (n_iterations, sites, replicas) fill. A model's replicas are its
    consecutive columns. Every block is one reused buffer, valid until the
    next is asked for.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x0 = np.concatenate([initial(rng, (sites, cfg.replicas)) for rng in rngs], axis=1)
    fills = [getattr(rng, fill) for rng in rngs]
    return x0, _noise(fills, cfg.schedule.n_iterations, x0.shape)


def _noise(fills, n_iterations: int, shape):
    """``n_iterations`` (sites, rows) blocks of one buffer, each model's fill
    in its own consecutive columns; see :func:`_draw`."""
    block = np.empty(shape)
    # numpy fills no strided ``out``: each model fills a scratch that is
    # copied into its columns.
    width = shape[1] // len(fills)
    scratch = np.empty((shape[0], width))
    for _ in range(n_iterations):
        for lo, fill in zip(range(0, shape[1], width), fills):
            block[:, lo : lo + width] = fill(out=scratch)
        yield block


def _batch_peaks(models, cfg: SolverConfig, seeds, peaks) -> np.ndarray:
    """The checks of a batched solve: at least one model, one seed per model
    and one coupling matrix; returns each model's peak, ``cfg.schedule.peak``
    for every model when ``peaks`` is None."""
    if not models:
        raise ValueError("need at least one model")
    if len(seeds) != len(models):
        raise ValueError("need one seed per model")
    peaks = np.full(len(models), cfg.schedule.peak) if peaks is None else require_peaks(peaks)
    if peaks.shape != (len(models),):
        raise ValueError("need one peak per model")
    j = models[0].j_matrix
    for m in models[1:]:
        if m.j_matrix is not j and not np.array_equal(m.j_matrix, j):
            raise ValueError("batched models must share one coupling matrix")
    return peaks


def _solve_many(
    kernel, draw, ramp: np.ndarray, models, cfg: SolverConfig, seeds, peaks
) -> list[SolveOutcome]:
    """The annealing loop of every batched solver.

    ``kernel(model, h, schedule, x0, noise)`` sweeps the draws of a chunk's
    seeds, ``draw(model, seeds, cfg)``, with the (sites, rows) bias ``h`` on
    the couplings of ``model``, which every model of the chunk shares, one
    sweep per schedule value, and yields the rows' (sites, rows) state after
    every iteration. The schedule is one (rows,) vector per sweep, made as
    the sweep starts: the solver's ``ramp`` factor for that sweep times each
    row's peak, its model's entry of ``peaks``, which is
    ``cfg.schedule.peak`` for every model when ``peaks`` is None. Each row
    keeps its first state of lowest energy, and the energy of its last state
    is its final energy.
    """
    peaks = _batch_peaks(models, cfg, seeds, peaks)
    j = models[0].j_matrix
    chunk = max(1, _MAX_STATE // (models[0].h_vector.size * cfg.replicas))
    outcomes = []
    for lo in range(0, len(models), chunk):
        hi = min(lo + chunk, len(models))
        h = np.repeat(np.stack([m.h_vector for m in models[lo:hi]], axis=1), cfg.replicas, axis=1)
        best_s = np.empty(h.shape)
        best_e = np.full(h.shape[1], np.inf)
        best_it = np.zeros(h.shape[1], dtype=int)
        row_peaks = np.repeat(peaks[lo:hi], cfg.replicas)
        # ramp_k * peak is peak * ramp_k bit for bit.
        schedule = (factor * row_peaks for factor in ramp)
        sweeps = kernel(models[lo], h, schedule, *draw(models[lo], seeds[lo:hi], cfg))
        for it, s in enumerate(sweeps, 1):
            e = ising_energies(s, j, h)
            improved = e < best_e
            best_e[improved] = e[improved]
            best_s[:, improved] = s[:, improved]
            best_it[improved] = it
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


def _level_draws(model, seeds, cfg: SolverConfig):
    """The draws of the p-bit and p-dit sweeps: each site starts at one of
    the model's ``pam_levels``, uniformly, and each sweep draws uniforms."""
    levels = model.pam_levels

    def initial(rng, size):
        return levels[rng.integers(0, levels.size, size)]

    return _draw(seeds, cfg, model.h_vector.size, initial, "random")


# ---------------------------------------------------------------------------
# binary-spin probabilistic sweeps


def _bpim_sweeps(j: np.ndarray, h: np.ndarray, betas, s0, u):
    """Sequential p-bit sweeps from the spins ``s0`` with the bias ``h``, both
    (n, rows), one per beta, each row's inverse temperature (rows,), with its
    (n, rows) block of the uniforms ``u``; yields the spins after each.

    Spins, bias and each sweep's uniforms live sites-major, (n, rows), so a
    site step is one product of the contiguous row J[i] (J is symmetric) with
    the spins, and writes one contiguous row. Each sweep's uniforms are
    turned into U = 2u - 1 once. A site takes +1 where
    U + tanh(beta * field) >= 0 and -1 elsewhere: U is never -0.0, so
    neither is that sum, and ``copysign`` gives exactly this sign. The
    yielded array is the live C-contiguous (n, rows) state: the next sweep
    rewrites it, and the caller only reads it.
    """
    n, rows = s0.shape
    s = s0.copy()
    v = np.empty((n, rows))
    field = np.empty(rows)
    for beta, u_k in zip(betas, u, strict=True):
        # rng.uniform(-1, 1) is -1 + 2u, bit for bit.
        np.multiply(u_k, 2.0, out=v)
        v -= 1.0
        for i in range(n):
            np.matmul(j[i], s, out=field)
            field += h[i]
            field *= beta
            np.tanh(field, out=field)
            field += v[i]
            np.copysign(1.0, field, out=s[i])
        yield s


def bpim_solve_many(
    models: list[BinaryIsingModel], cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Best-of-R p-bit annealing of models that share one coupling matrix."""

    def kernel(model, h, betas, s0, u):
        return _bpim_sweeps(model.j_matrix, h, betas, s0, u)

    return _solve_many(kernel, _level_draws, cfg.schedule.ramp(), models, cfg, seeds, peaks)


# ---------------------------------------------------------------------------
# symbol-native probabilistic sweeps


def _dpim_sweeps(model: PditModel, h: np.ndarray, betas, d0, u):
    """Sequential p-dit sweeps from the axes ``d0`` (2n, rows), with the
    bias ``h`` (2n, rows), one per beta, each row's inverse temperature
    (rows,), with its (2n, rows) block of the uniforms ``u``; each site
    redraws its two axes, each from the softmax of its own move costs over
    the PAM levels (exact as J[i, n + i] = 0).

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
    # Each site's J[i, i], which its two axes share, scaled by 0.5 beta once
    # per sweep: products commute, so each is (0.5 beta) J[i, i] bit for bit.
    j_diag = np.diagonal(j)[:n, None]
    for beta, u_k in zip(betas, u, strict=True):
        u_axes = u_k.reshape(2, n, rows)
        half_beta_j = j_diag * (0.5 * beta)
        for i in range(n):
            x = axes[:, i]
            np.matmul(field_rows[i], d, out=field)
            field += h_axes[:, i]
            field *= beta
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
    models: list[PditModel], cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Best-of-R p-dit annealing of channel-sharing symbol-native models.

    Candidate values are each model's own PAM levels; best states are the
    (2N,) axis values [Re x; Im x].
    """
    return _solve_many(_dpim_sweeps, _level_draws, cfg.schedule.ramp(), models, cfg, seeds, peaks)


# ---------------------------------------------------------------------------
# oscillator phase dynamics


class _OimBands:
    """One oscillator kernel call's couplings as circulant bands, with its
    gains and its row chunks.

    Band d = 1..n//2 holds the site pairs (i, i+d mod n), i = 0..n-1, so
    every unordered pair lies in exactly one band; on even n the last band
    meets each pair twice, and its second half has weight 0. A pair's value
    enters its first site i with weight J[i, i+d] and its second site k = i+d
    negated, with weight -J[k-d, k]; J must be symmetric, and its diagonal
    never enters. ``weights[i]`` holds site i's 2 x bands weights, first-site
    ones first. The drift runs over the rows in chunks whose band buffers,
    the ``sin_cos`` and ``pairs`` of :class:`_OimBuffers`, fit
    ``_OIM_BAND_BYTES``, or hold one row.
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
        self.weights = np.concatenate([j_to, -j_from]).T[:, None, :].copy()
        self.coupling = params.coupling
        self.binarization = params.binarization
        per_row = 8 * (4 * n + 2 * n_bands * n)
        width = max(1, min(rows, _OIM_BAND_BYTES // per_row))
        # (rows, bias, buffers) per chunk; all full chunks share one set of
        # buffers.
        full = _OimBuffers(n, n_bands, width)
        self.chunks = []
        for lo in range(0, rows, width):
            hi = min(lo + width, rows)
            buffers = full if hi - lo == width else _OimBuffers(n, n_bands, hi - lo)
            self.chunks.append((slice(lo, hi), h[:, lo:hi], buffers))


class _OimBuffers:
    """The work buffers of the oscillator drift for a chunk of ``width``
    rows, and the views that read them. Every buffer is sites-major, so that
    a band is one contiguous block:

    - ``sin_cos`` (2, 2, n, width) holds [sin; sin] and [cos; cos] of the
      chunk's phases, doubled along the sites, so that every band's partner
      phases x[i + d mod n] are one zero-copy strided view, ``partners``;
    - ``pairs`` (2, bands, n, width) holds each band's values at their first
      site, and the same values gathered to their second site:
      ``pairs[1, d-1, k] = pairs[0, d-1, k-d mod n]``.
    """

    def __init__(self, n: int, n_bands: int, width: int):
        sin_cos = np.empty((2, 2, n, width))
        self.sin2, self.cos2 = sin_cos
        self.sin_phi, self.cos_phi = sin_cos[:, 0]
        self.heads = sin_cos[:, :1]
        plane, _, site, row = sin_cos.strides
        # [cos; sin] and [sin; cos] at x[i + d], d = 1..n_bands, so that one
        # product with ``heads``, [sin; cos] at x[i], gives sin_i cos_j and
        # cos_i sin_j.
        self.partners = np.lib.stride_tricks.as_strided(
            sin_cos[::-1, :, 1:], (2, n_bands, n, width), (-plane, site, site, row)
        )
        self.pairs = np.empty((2, n_bands, n, width))
        self.first, self.second = self.pairs
        # Row views for the gather, and site i's (2 x bands, width) block.
        self.first_rows, self.second_rows = (x.reshape(-1, width) for x in self.pairs)
        self.by_site = self.pairs.reshape(-1, n, width).transpose(1, 0, 2)
        # The band product, one (1, width) row per site, and one term of the
        # drift at a time.
        self.coupling = np.empty((n, 1, width))
        self.term = np.empty((n, width))


def _oim_drift(
    sin_phi: np.ndarray, cos_phi: np.ndarray, bands: _OimBands, out: np.ndarray
) -> np.ndarray:
    """Phase velocities of a sites-major (n, rows) stack of oscillators, from
    the sines and cosines of their phases, written to and returned in ``out``.

    Site i moves at -coupling * (sum_j J_ij tanh(10 sin(phi_i - phi_j)) +
    h_i sin(phi_i)) - binarization * sin(2 phi_i). sin and tanh are odd, so
    each pair's tanh is taken once, in its band (see :class:`_OimBands`), and
    enters both its sites.
    """
    for rows, h, c in bands.chunks:
        np.copyto(c.sin2, sin_phi[:, rows])
        np.copyto(c.cos2, cos_phi[:, rows])
        t = c.first
        np.multiply(c.heads, c.partners, out=c.pairs)
        t -= c.second  # sin(phi_i - phi_{i+d})
        t *= 10.0
        np.tanh(t, out=t)
        # The indices are in range; "clip" lets take write straight into out.
        np.take(c.first_rows, bands.from_index, axis=0, out=c.second_rows, mode="clip")
        coupling = np.matmul(bands.weights, c.by_site, out=c.coupling)[:, 0]
        coupling += np.multiply(h, c.sin_phi, out=c.term)
        coupling *= -bands.coupling
        # binarization * (2 sin cos): a factor 2 is exact wherever it is
        # applied, so this is bit for bit the same.
        binarize = np.multiply(c.sin_phi, c.cos_phi, out=c.term)
        binarize *= 2.0 * bands.binarization
        np.subtract(coupling, binarize, out=out[:, rows])
    return out


def _oim_draws(model: BinaryIsingModel, seeds, cfg: SolverConfig):
    def initial(rng, size):
        return rng.uniform(0.0, 2.0 * np.pi, size)

    return _draw(seeds, cfg, model.n, initial, "standard_normal")


def _oim_sweeps(j: np.ndarray, h: np.ndarray, temps, params: OimParams, phi0, noise):
    """Heun-integrated phase dynamics from the phases ``phi0`` (n, rows), with
    the bias ``h`` (n, rows), one step per noise level in ``temps``, each
    row's level (rows,), with its (n, rows) block of the normal ``noise``
    scaled by that level; yields sign(cos phase) per step.

    Phases, bias and noise are sites-major, (n, rows), the layout of
    :func:`_oim_drift`. A step writes into buffers made once per call, in
    the operation order of pred = phi + dt f0 + kick and
    phi += 0.5 dt (f0 + f1) + kick: IEEE sums and products commute, so each
    in-place form is that expression bit for bit. The yielded readout is one
    C-contiguous (n, rows) buffer: the next step rewrites it, and the caller
    only reads it.
    """
    phi = phi0.copy()
    kick, pred, f0, f1, sin_x, cos_x, readout = np.empty((7, *phi.shape))
    bands = _OimBands(j, h, params)
    sqrt_dt = np.sqrt(_OIM_DT)
    # sin_x and cos_x hold the sines and cosines of phi, except while they
    # hold those of pred for its drift f1.
    np.sin(phi, out=sin_x)
    np.cos(phi, out=cos_x)
    for temp, noise_k in zip(temps, noise, strict=True):
        np.multiply(noise_k, temp * sqrt_dt, out=kick)
        _oim_drift(sin_x, cos_x, bands, out=f0)
        np.multiply(f0, _OIM_DT, out=pred)
        pred += phi
        pred += kick
        np.sin(pred, out=sin_x)
        np.cos(pred, out=cos_x)
        _oim_drift(sin_x, cos_x, bands, out=f1)
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
def _openblas() -> tuple:
    """The thread-count getter and setter of numpy's BLAS, if it is an
    OpenBLAS, as (get, set); a symbol numpy's BLAS does not export is None.

    ``dlsym`` on numpy's own extension searches that library's dependency
    tree, so this finds the BLAS numpy loaded whatever its file is called.
    """
    core = getattr(np, "_core", None) or np.core  # numpy 1.x names it core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for get_name, set_name in _OPENBLAS_THREADS:
        set_threads = getattr(lib, set_name, None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            get_threads = getattr(lib, get_name, None)
            if get_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
            return get_threads, set_threads
    return None, None


def _oim_threads(n_models: int) -> int:
    """The number of threads an oscillator solve of ``n_models`` models runs
    on: at most numpy's BLAS thread count, the cores this process may run on
    and the models; one where numpy's BLAS has no OpenBLAS getter or setter."""
    get_threads, set_threads = _openblas()
    if get_threads is None or set_threads is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(get_threads(), cores or 1, n_models))


@contextmanager
def _blas_on_one_thread():
    """numpy's OpenBLAS on one thread while the block runs, then back at its
    thread count; needs both symbols of :func:`_openblas`."""
    get_threads, set_threads = _openblas()
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def oim_solve_many(
    models: list[BinaryIsingModel], cfg: SolverConfig, seeds, peaks=None
) -> list[SolveOutcome]:
    """Best-of-R oscillator runs, with a decaying noise level, of models that
    share one coupling matrix; spins are read out as sign(cos phase).

    The batch is split into :func:`_oim_threads` contiguous groups of
    models, each solved on its own thread, and the outcomes are joined in
    model order; one group is one solve in this thread. While the groups
    run, numpy's OpenBLAS runs one thread, so k groups run k BLAS threads,
    not k times its thread count, and each computes as a pool worker does.
    numpy's sin, cos and tanh, most of a step, release the GIL, so the
    groups overlap; the p-bit and p-dit site steps hold it, so their solvers
    do not split.
    """
    peaks = _batch_peaks(models, cfg, seeds, peaks)
    ramp = 1.0 - cfg.schedule.ramp()

    def kernel(model, h, temps, phi0, noise):
        return _oim_sweeps(model.j_matrix, h, temps, oim_params(model.n), phi0, noise)

    def solve(group: slice) -> list[SolveOutcome]:
        return _solve_many(kernel, _oim_draws, ramp, models[group], cfg, seeds[group], peaks[group])

    k = _oim_threads(len(models))
    if k == 1:
        return solve(slice(None))
    groups = [slice(g * len(models) // k, (g + 1) * len(models) // k) for g in range(k)]
    with _blas_on_one_thread(), ThreadPoolExecutor(k) as pool:
        parts = list(pool.map(solve, groups))
    return [outcome for part in parts for outcome in part]


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
