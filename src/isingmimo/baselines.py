"""Classical detectors: zero-forcing, MMSE, and exact maximum likelihood.

The exact detector is a depth-first sphere decoder on the real-valued model
with closest-first (Schnorr-Euchner) child ordering and an initially
unbounded radius that shrinks at each leaf, so it returns the true residual
minimizer. A node's children are generated on demand: bisect its centre into
the sorted PAM levels, then step outward one level at a time, the lower level
first when two are equally far. The search runs on Python floats and lists,
which are several times faster than numpy scalars at these sizes. The QR
factor of the real-valued channel is computed once per channel: all the cells
of a channel share H, so :func:`ml_exact` keeps the factor of the last
(H, order) it saw. A brute-force enumerator over the full candidate space is
kept alongside as an independent oracle for tests.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import complex_symbols, realify
from .constellation import Constellation, demodulate_symbols, quantize_to_alphabet

__all__ = [
    "DetectionResult",
    "SingularChannelError",
    "SearchBudgetError",
    "zf_detect",
    "mmse_detect",
    "ml_exact",
    "ml_exhaustive",
    "ML_SEARCH_BUDGET",
]


# The largest order**n_tx that the exact detector searches; plan_experiment
# refuses an ml plan beyond it before any work.
ML_SEARCH_BUDGET = 2.0**48


class SingularChannelError(ValueError):
    """Channel matrix is rank deficient; linear inversion is undefined."""


class SearchBudgetError(ValueError):
    """Exact search refused: candidate space exceeds the configured budget."""


@dataclass(frozen=True, eq=False)
class DetectionResult:
    symbols: np.ndarray
    bits: np.ndarray
    residual_energy: float
    method: str


def _result(symbols: np.ndarray, H: np.ndarray, y: np.ndarray, c: Constellation, method: str) -> DetectionResult:
    residual = float(np.linalg.norm(y - H @ symbols) ** 2)
    return DetectionResult(symbols, demodulate_symbols(symbols, c), residual, method)


def zf_detect(H: np.ndarray, y: np.ndarray, c: Constellation) -> DetectionResult:
    """Least-squares inversion followed by per-entry quantization."""
    H = np.asarray(H)
    y = np.asarray(y)
    soft, _, rank, _ = np.linalg.lstsq(H, y, rcond=None)
    if rank < H.shape[1]:
        raise SingularChannelError(
            f"channel has rank {rank} < {H.shape[1]} transmit antennas"
        )
    symbols = quantize_to_alphabet(soft, c)
    return _result(symbols, H, y, c, "zf")


def mmse_detect(
    H: np.ndarray, y: np.ndarray, sigma_sq: float, es: float, c: Constellation
) -> DetectionResult:
    """Regularized inversion (H'H + I sigma^2/Es)^-1 H'y, then quantization."""
    H = np.asarray(H)
    y = np.asarray(y)
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    gram = H.conj().T @ H + (sigma_sq / es) * np.eye(H.shape[1])
    try:
        soft = np.linalg.solve(gram, H.conj().T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError(str(exc)) from exc
    symbols = quantize_to_alphabet(soft, c)
    return _result(symbols, H, y, c, "mmse")


def _sphere_decode(r_mat: np.ndarray, z: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """argmin over the level grid of ||z - R x||^2 for upper-triangular R.

    ``levels`` must be sorted ascending. Each depth keeps the next unvisited
    level index below its centre (``lo``) and at or above it (``hi``); the
    next child is the nearer of the two, the lower one on a tie. A child whose
    cost is not below the best leaf so far prunes itself and all its later
    siblings, and the first leaf found wins ties.
    """
    r = r_mat.tolist()
    zs = z.tolist()
    lev = levels.tolist()
    q = len(zs)
    top = len(lev)
    x = [0.0] * q
    lo = [0] * q
    hi = [0] * q
    centre = [0.0] * q
    acc = [0.0] * q  # cost of the fixed tail x[k+1:]
    e = [0.0] * q  # tail-adjusted target at each depth
    best_x = None
    best_cost = float("inf")

    def enter(k: int) -> None:
        row = r[k]
        dot = 0.0
        for j in range(k + 1, q):
            dot += row[j] * x[j]
        e[k] = zs[k] - dot
        centre[k] = c = e[k] / row[k]
        hi[k] = i = bisect_left(lev, c)
        lo[k] = i - 1

    k = q - 1
    enter(k)
    while True:
        below, above, c = lo[k], hi[k], centre[k]
        if below >= 0 and (above == top or c - lev[below] <= lev[above] - c):
            level = lev[below]
            lo[k] = below - 1
        elif above < top:
            level = lev[above]
            hi[k] = above + 1
        else:
            level = None
        if level is not None:
            cost = acc[k] + (e[k] - r[k][k] * level) ** 2
            if cost < best_cost:
                x[k] = level
                if k > 0:
                    acc[k - 1] = cost
                    k -= 1
                    enter(k)
                    continue
                best_cost = cost
                best_x = x.copy()
            # Closest-first ordering: the remaining siblings only cost more.
        k += 1
        if k == q:
            break
    return None if best_x is None else np.array(best_x)


# The last (key, q_mat, r_mat) that _channel_factor computed. One entry is
# enough: the harness solves all the cells of a channel in a row.
_last_factor: tuple = (None, None, None)


def _channel_factor(H: np.ndarray, y: np.ndarray, order: int) -> tuple:
    """(Q, R) of the real-valued channel, reused while H and order repeat.

    ``y`` only completes the ``realify`` call; the factor does not depend on
    it. Q is None when R's diagonal shows H to be numerically rank deficient.
    """
    global _last_factor
    key = (order, H.shape, H.dtype.str, H.tobytes())
    if _last_factor[0] != key:
        q_mat, r_mat = np.linalg.qr(realify(H, y, order).h_real)
        diag = np.abs(np.diag(r_mat))
        if diag.min() <= 1e-12 * max(diag.max(), 1.0):
            q_mat = None
        _last_factor = (key, q_mat, r_mat)
    return _last_factor[1], _last_factor[2]


def ml_exact(
    H: np.ndarray, y: np.ndarray, c: Constellation, max_search_space: float = ML_SEARCH_BUDGET
) -> DetectionResult:
    """Exact minimizer of ||y - Hx||^2 over the constellation grid.

    Refuses when order**n_tx exceeds ``max_search_space`` so scripted runs
    cannot start an unbounded exponential search by accident. The real-valued
    channel is QR-factored (and rank-checked) once per channel: successive
    calls with the same H and order reuse the factor, so each cell only
    rotates its own ``y`` and searches.
    """
    H = np.asarray(H)
    y = np.asarray(y)
    n = H.shape[1]
    space = float(c.order) ** n
    if space > max_search_space:
        raise SearchBudgetError(
            f"search space {c.order}**{n} = {space:.3g} exceeds budget {max_search_space:.3g}"
        )
    q_mat, r_mat = _channel_factor(H, y, c.order)
    if q_mat is None:
        raise SingularChannelError("real-valued channel is numerically rank deficient")
    z = q_mat.T @ np.concatenate([y.real, y.imag])  # y_real, as realify stacks it
    symbols = complex_symbols(_sphere_decode(r_mat, z, c.levels), n)
    return _result(symbols, H, y, c, "ml")


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
    return _result(grid[best], H, y, c, "ml-exhaustive")
