"""Classical detectors: zero-forcing, MMSE, and exact maximum likelihood.

All the cells of a channel share H, so the detectors take a
:class:`ChannelFactors` of H in its place, which computes what a detector
takes from H alone once, on first use: ZF's pseudo-inverse from one SVD,
rank-checked by ``lstsq``'s default test; MMSE's H^H and Gram matrix H^H H;
and the QR factor of the real-valued channel of each order. A cell is then
one matvec (ZF), one small solve (MMSE) or one rotation of y and a search
(ML). Each cell then decides its symbols and bits once, by the one decision
rule :func:`~isingmimo.constellation.decide`: ZF and MMSE decide their soft
values, and ML the levels of the minimizer its search found, which decide
themselves.

The exact detector is a depth-first sphere decoder on the real-valued model
with closest-first (Schnorr-Euchner) child ordering and an initially
unbounded radius that shrinks at each leaf, so it returns the true residual
minimizer. A node's children are generated on demand: bisect its centre into
the sorted PAM levels, then step outward one level at a time, the lower level
first when two are equally far. The search runs on Python floats and lists,
which are several times faster than numpy scalars at these sizes; R's rows,
its diagonal and the levels are turned into lists once per channel. A
brute-force enumerator over the full candidate space is kept alongside as an
independent oracle for tests.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import complex_symbols, real_channel, stack_real
from .constellation import Constellation, decide, demodulate_symbols

__all__ = [
    "ChannelFactors",
    "DetectionResult",
    "SingularChannelError",
    "SearchBudgetError",
    "zf_detect",
    "mmse_detect",
    "ml_exact",
    "ml_exhaustive",
    "ML_SEARCH_BUDGET",
    "require_ml_budget",
]


# The largest order**n_tx that the exact detector searches; plan_experiment
# refuses an ml plan beyond it before any work.
ML_SEARCH_BUDGET = 2.0**48


class SingularChannelError(ValueError):
    """Channel matrix is rank deficient; linear inversion is undefined."""


class SearchBudgetError(ValueError):
    """Exact search refused: candidate space exceeds the configured budget."""


def require_ml_budget(order: int, n: int) -> None:
    """Refuse, with a :class:`SearchBudgetError`, an exact search of the
    ``order**n`` transmit vectors of ``n`` symbols beyond
    :data:`ML_SEARCH_BUDGET`: the one check of both the plan and the
    detector. The space stays an exact int: as a float it overflows from
    BPSK n = 1024, and Python compares an int with a Python float exactly,
    where a numpy float would convert the int and overflow too."""
    if order**n > float(ML_SEARCH_BUDGET):
        raise SearchBudgetError(
            f"exact ML search space {order}**{n} exceeds the budget {ML_SEARCH_BUDGET:.3g}"
        )


@dataclass(frozen=True, eq=False)
class DetectionResult:
    symbols: np.ndarray
    bits: np.ndarray
    residual_energy: float
    method: str


def _received(y) -> np.ndarray:
    """``y`` as an array, rejected if any entry is non-finite: a NaN or an
    infinity would otherwise reach the search or the rounding through the
    matrix products, as a warning and then a failure far from its cause."""
    y = np.asarray(y)
    if not np.isfinite(y).all():
        raise ValueError("cannot detect from non-finite values in y")
    return y


def _result(
    symbols: np.ndarray, bits: np.ndarray, H: np.ndarray, y: np.ndarray, method: str
) -> DetectionResult:
    """The detection of ``symbols``, with its residual energy ||y - H x||^2;
    a residual that overflows is rejected with a ``ValueError``."""
    r = y - H @ symbols
    residual = float(np.vdot(r, r).real)
    # A finite y can still overflow its residual; every detector rejects it.
    if not residual < math.inf:
        raise ValueError(f"y is too large for {method} detection: its residual energy overflows")
    return DetectionResult(symbols, bits, residual, method)


class ChannelFactors:
    """What the detectors take from one channel H alone, each part computed
    on first use: the ZF pseudo-inverse, the MMSE Gram matrix, and the QR
    factor of the real-valued channel of each order. Reuse is per object,
    one for all the cells of a channel, and H is held as given, not copied:
    a caller who changes H in place must build a new one."""

    def __init__(self, H: np.ndarray):
        self.H = np.asarray(H)
        self._qr: dict = {}

    @cached_property
    def zf(self) -> tuple:
        """(pseudo-inverse, rank) from one SVD; the pseudo-inverse is None
        when H is rank deficient by ``lstsq``'s default test."""
        u, sv, vh = np.linalg.svd(self.H, full_matrices=False)
        n_rx, n_tx = self.H.shape
        rank = int(np.count_nonzero(sv > np.finfo(self.H.dtype).eps * max(n_rx, n_tx) * sv[0]))
        if rank < n_tx:
            return None, rank
        return (vh.conj().T / sv) @ u.conj().T, rank

    @cached_property
    def mmse(self) -> tuple:
        """(H^H, H^H H, I): a cell adds (sigma^2/Es) I to the Gram and solves."""
        h_herm = self.H.conj().T
        return h_herm, h_herm @ self.H, np.eye(self.H.shape[1])

    def ml(self, c: Constellation) -> tuple:
        """(Q, R's rows, R's diagonal, ``c.levels``) of the real-valued
        channel of ``c``'s order, the last three as Python lists for the
        search; Q is None when R's diagonal shows H to be numerically rank
        deficient."""
        if c.order not in self._qr:
            q_mat, r_mat = np.linalg.qr(real_channel(self.H, c.order))
            diag = np.abs(np.diag(r_mat))
            if diag.min() <= 1e-12 * max(diag.max(), 1.0):
                q_mat = None
            rows = r_mat.tolist()
            self._qr[c.order] = (
                q_mat,
                rows,
                [row[k] for k, row in enumerate(rows)],
                c.levels.tolist(),
            )
        return self._qr[c.order]


def zf_detect(factors: ChannelFactors, y: np.ndarray, c: Constellation) -> DetectionResult:
    """Pseudo-inverse of H applied to y, followed by per-entry quantization."""
    y = _received(y)
    pinv, rank = factors.zf
    if pinv is None:
        raise SingularChannelError(
            f"channel has rank {rank} < {factors.H.shape[1]} transmit antennas"
        )
    symbols, bits = decide(pinv @ y, c)
    return _result(symbols, bits, factors.H, y, "zf")


def mmse_detect(
    factors: ChannelFactors, y: np.ndarray, sigma_sq: float, c: Constellation
) -> DetectionResult:
    """Regularized inversion (H'H + I sigma^2/Es)^-1 H'y, with Es the symbol
    energy of ``c``, then quantization."""
    y = _received(y)
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    h_herm, gram, eye = factors.mmse
    try:
        soft = np.linalg.solve(gram + (sigma_sq / c.symbol_energy) * eye, h_herm @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError(str(exc)) from exc
    symbols, bits = decide(soft, c)
    return _result(symbols, bits, factors.H, y, "mmse")


def _sphere_decode(rows: list, diag: list, z: list, lev: list) -> list | None:
    """argmin over the level grid of ||z - R x||^2 for upper-triangular R.

    R is given as its ``rows`` and its ``diag``onal, and ``lev`` are the
    levels sorted ascending, all as lists of floats. Returns the minimizer,
    the level of each entry as a list, or None when no leaf has a finite
    cost. Each depth keeps the next unvisited level index below its centre
    (``lo``) and at or above it (``hi``); the next child is the nearer of the
    two, the lower one on a tie. A child whose cost is not below the best
    leaf so far prunes itself and all its later siblings, and the first leaf
    found wins ties.
    """
    q = len(z)
    top = len(lev)
    x = [0.0] * q  # level of each fixed depth
    lo = [0] * q
    hi = [0] * q
    centre = [0.0] * q
    acc = [0.0] * q  # cost of the fixed tail x[k+1:]
    e = [0.0] * q  # tail-adjusted target at each depth
    best = None
    best_cost = float("inf")

    k = q - 1
    e[k] = z[k]  # nothing fixed below the root: the target is z itself
    centre[k] = c = z[k] / diag[k]
    hi[k] = i = bisect_left(lev, c)
    lo[k] = i - 1
    while True:
        below, above, c = lo[k], hi[k], centre[k]
        if below >= 0 and (above == top or c - lev[below] <= lev[above] - c):
            i = below
            lo[k] = below - 1
        elif above < top:
            i = above
            hi[k] = above + 1
        else:
            i = -1
        if i >= 0:
            level = lev[i]
            cost = acc[k] + (e[k] - diag[k] * level) ** 2
            if cost < best_cost:
                x[k] = level
                if k > 0:
                    acc[k - 1] = cost
                    k -= 1
                    row = rows[k]
                    dot = 0.0
                    for j in range(k + 1, q):
                        dot += row[j] * x[j]
                    e[k] = t = z[k] - dot
                    centre[k] = c = t / diag[k]
                    hi[k] = i = bisect_left(lev, c)
                    lo[k] = i - 1
                    continue
                best_cost = cost
                best = x.copy()
            # Closest-first ordering: the remaining siblings only cost more.
        k += 1
        if k == q:
            break
    return best


def ml_exact(factors: ChannelFactors, y: np.ndarray, c: Constellation) -> DetectionResult:
    """Exact minimizer of ||y - Hx||^2 over the constellation grid.

    Refuses when order**n_tx exceeds :data:`ML_SEARCH_BUDGET`
    (:func:`require_ml_budget`), so scripted runs cannot start an unbounded
    exponential search by accident. The real-valued channel is QR-factored
    (and rank-checked) once per order of ``c`` and per ``factors`` object:
    every call with the same ``factors`` and order reuses the factor, so
    each cell only rotates its own ``y``, searches, and decides the
    minimizer's levels (:func:`~isingmimo.constellation.decide`) into its
    symbols and bits.
    A caller who changes H in place must build a new :class:`ChannelFactors`.
    A ``y`` so large that a squared residual overflows is rejected with a
    ``ValueError``.
    """
    H = factors.H
    y = _received(y)
    n = H.shape[1]
    require_ml_budget(c.order, n)
    q_mat, rows, diag, levels = factors.ml(c)
    if q_mat is None:
        raise SingularChannelError("real-valued channel is numerically rank deficient")
    # The search finds a minimizer unless a cost overflows: Python's float **
    # raises, and a sum that reaches inf leaves no leaf below the radius.
    try:
        x = _sphere_decode(rows, diag, (q_mat.T @ stack_real(y)).tolist(), levels)
    except OverflowError:
        x = None
    if x is None:
        raise ValueError("y is too large for the exact search: a squared residual overflows")
    symbols, bits = decide(complex_symbols(x, n), c)
    return _result(symbols, bits, H, y, "ml")


def ml_exhaustive(
    H: np.ndarray, y: np.ndarray, c: Constellation, max_candidates: int = 2**20
) -> DetectionResult:
    """Brute-force minimizer; first candidate in lexicographic alphabet order wins ties."""
    H = np.asarray(H)
    y = np.asarray(y)
    n = H.shape[1]
    space = c.order**n
    if space > max_candidates:
        raise SearchBudgetError(
            f"{c.order}**{n} = {space} candidates exceed budget {max_candidates}"
        )
    grid = np.array(list(itertools.product(c.alphabet, repeat=n)))
    residuals = np.abs(y[None, :] - grid @ H.T) ** 2
    best = int(np.argmin(residuals.sum(axis=1)))
    symbols = grid[best]
    return _result(symbols, demodulate_symbols(symbols, c), H, y, "ml-exhaustive")
