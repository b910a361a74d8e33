"""Classical detectors: zero-forcing, MMSE, and exact maximum likelihood.

All the cells of a channel share H, so what a detector takes from H alone is
computed once per channel, on first use, and kept for the last channel seen,
keyed on H's contents (shape, dtype and bytes), never its identity: ZF's
pseudo-inverse from one SVD, rank-checked by ``lstsq``'s default test; MMSE's
H^H and Gram matrix H^H H; and the QR factor of the real-valued channel of
each order. A cell is then one matvec (ZF), one small solve (MMSE) or one
rotation of y and a search (ML), followed by the constellation's
table-driven decision.

The exact detector is a depth-first sphere decoder on the real-valued model
with closest-first (Schnorr-Euchner) child ordering and an initially
unbounded radius that shrinks at each leaf, so it returns the true residual
minimizer. A node's children are generated on demand: bisect its centre into
the sorted PAM levels, then step outward one level at a time, the lower level
first when two are equally far. The search runs on Python floats and lists,
which are several times faster than numpy scalars at these sizes. A
brute-force enumerator over the full candidate space is kept alongside as an
independent oracle for tests.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import complex_symbols, real_channel, stack_real
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
    r = y - H @ symbols
    residual = float(np.vdot(r, r).real)
    return DetectionResult(symbols, demodulate_symbols(symbols, c), residual, method)


class _ChannelFactors:
    """What the detectors take from one channel H alone, each part computed
    on first use: the ZF pseudo-inverse, the MMSE Gram matrix, and the QR
    factor of the real-valued channel of each order."""

    def __init__(self, key: tuple, H: np.ndarray):
        self.key = key
        self.H = H.copy()
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

    def ml(self, order: int) -> tuple:
        """(Q, R) of the real-valued channel of ``order``; Q is None when R's
        diagonal shows H to be numerically rank deficient."""
        if order not in self._qr:
            q_mat, r_mat = np.linalg.qr(real_channel(self.H, order))
            diag = np.abs(np.diag(r_mat))
            if diag.min() <= 1e-12 * max(diag.max(), 1.0):
                q_mat = None
            self._qr[order] = (q_mat, r_mat)
        return self._qr[order]


# The factors of the last channel a detector saw. One entry is enough: the
# harness solves all the cells of a channel in a row.
_last_channel: _ChannelFactors | None = None


def _channel(H: np.ndarray) -> _ChannelFactors:
    """The factors of H, reused while calls repeat H's contents (shape, dtype
    and bytes; never its identity)."""
    global _last_channel
    key = (H.shape, H.dtype.str, H.tobytes())
    if _last_channel is None or _last_channel.key != key:
        _last_channel = _ChannelFactors(key, H)
    return _last_channel


def zf_detect(H: np.ndarray, y: np.ndarray, c: Constellation) -> DetectionResult:
    """Pseudo-inverse of H applied to y, followed by per-entry quantization."""
    H = np.asarray(H)
    y = np.asarray(y)
    pinv, rank = _channel(H).zf
    if pinv is None:
        raise SingularChannelError(
            f"channel has rank {rank} < {H.shape[1]} transmit antennas"
        )
    symbols = quantize_to_alphabet(pinv @ y, c)
    return _result(symbols, H, y, c, "zf")


def mmse_detect(
    H: np.ndarray, y: np.ndarray, sigma_sq: float, es: float, c: Constellation
) -> DetectionResult:
    """Regularized inversion (H'H + I sigma^2/Es)^-1 H'y, then quantization."""
    H = np.asarray(H)
    y = np.asarray(y)
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    h_herm, gram, eye = _channel(H).mmse
    try:
        soft = np.linalg.solve(gram + (sigma_sq / es) * eye, h_herm @ y)
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
    q_mat, r_mat = _channel(H).ml(c.order)
    if q_mat is None:
        raise SingularChannelError("real-valued channel is numerically rank deficient")
    z = q_mat.T @ stack_real(y)
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
