"""Hamiltonian encodings of a MIMO instance.

Two equivalent encodings of the residual objective ||y - Hx||^2 are built
here, both from the real-valued channel of :func:`realify`: a binary spin
model over {-1,+1}^n and a symbol-native model with one variable per
transmitted symbol, whose two axes take PAM-level values. The binary model
writes each real axis of the unknown as a binary expansion
L/2 s_1 + ... + 2 s_{B-1} + s_B over its L PAM levels (BPSK: one spin of
weight 1), so the modulation order enters it only through these per-spin
weights. Both act on real vectors with one coupling matrix and one bias
vector: spins, or the symbol axes [Re x; Im x] in realify's layout. Both store
enough constants that their energies can be compared against residual norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RealizedChannel, complex_symbols, stack_real
from .constellation import axis_level_count, pam_levels

__all__ = [
    "BinaryIsingModel",
    "PditModel",
    "spin_weights",
    "symbols_to_spins",
    "spins_to_symbols",
    "binary_couplings",
    "build_binary_model",
    "ising_energies",
    "pdit_couplings",
    "build_pdit_model",
    "random_state_energies",
]


def require_ints(**values) -> None:
    """Counts, orders and seeds are ints, never rounded; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int; got {value!r}")


@dataclass(frozen=True, eq=False)
class BinaryIsingModel:
    """Spin Hamiltonian -1/2 s'Js - h's whose value + offset is the residual norm."""

    j_matrix: np.ndarray
    h_vector: np.ndarray
    offset: float
    n: int

    @property
    def pam_levels(self) -> np.ndarray:
        """The values every spin takes, -1 and +1: the two PAM levels."""
        return np.array([-1.0, 1.0])


@dataclass(frozen=True, eq=False)
class PditModel:
    """Symbol-native Hamiltonian -1/2 d'Jd - h'd over N symbols with PAM-level axes.

    The state d = [Re x; Im x] has 2N entries, the unknown of the
    :func:`realify` channel it is built from. ``j_matrix`` is the block matrix
    [[J11, J12], [-J12, J11]], J11 symmetric and J12 antisymmetric, so it is
    symmetric; its diagonal is not zero. Couplings depend on the channel only;
    ``h_vector`` (2N,) on channel and received vector. ``n`` counts symbols, N.
    """

    j_matrix: np.ndarray
    h_vector: np.ndarray
    pam_levels: np.ndarray
    n: int


def spin_weights(order: int) -> np.ndarray:
    """Weights L/2, L/4, ..., 1 of the B spins behind one real axis.

    L = 2^B is the number of PAM levels per axis: 2 for BPSK (one spin of
    weight 1), sqrt(M) for M-QAM. A spin vector holds B significance groups,
    most significant first, each with one spin per entry of the real unknown,
    and the unknown is ``weights @ s.reshape(B, -1)``.
    """
    n_levels = axis_level_count(order)  # rejects invalid orders
    return n_levels / 2.0 ** np.arange(1, n_levels.bit_length())


def symbols_to_spins(x: np.ndarray, order: int) -> np.ndarray:
    """Binarize symbols into the spin layout of :func:`spin_weights`.

    Each entry of the real unknown (x for BPSK, [Re x; Im x] for QAM) is
    peeled into signed halvings: the most significant spin is the sign of the
    value at weight L/2, the next the sign of the remainder at L/4, and so on
    down to weight 1.
    """
    x = np.asarray(x, dtype=complex)
    weights = spin_weights(order)
    # B of a symbol's log2(M) spins carry one axis: one axis per BPSK
    # symbol, two per QAM symbol.
    n_axes = x.size * round(math.log2(order)) // weights.size
    rem = stack_real(x)[:n_axes]
    groups = []
    for weight in weights:
        s_k = np.where(rem >= 0, 1.0, -1.0)
        rem = rem - weight * s_k
        groups.append(s_k)
    spins = np.concatenate(groups)
    if not np.array_equal(spins_to_symbols(spins, x.size, order), x):
        raise ValueError(f"symbols must lie on the order-{order} alphabet")
    return spins


def spins_to_symbols(s: np.ndarray, n_sym: int, order: int) -> np.ndarray:
    """Inverse of :func:`symbols_to_spins`: weigh the spin groups, recombine axes."""
    s = np.asarray(s, dtype=float)
    n_spins = n_sym * round(math.log2(order))
    if s.shape != (n_spins,):
        raise ValueError(f"expected {n_spins} spins for N={n_sym}, M={order}; got {s.shape}")
    weights = spin_weights(order)
    return complex_symbols(weights @ s.reshape(weights.size, -1), n_sym)


def binary_couplings(rc: RealizedChannel) -> tuple:
    """The part of a binary model that depends on the channel alone.

    Returns (heff, J, trace of heff'heff), where heff is the real-valued
    channel with column block k scaled by the k-th spin weight: a power of
    two, so every entry is exact. BPSK's one weight is 1, and its heff is
    ``rc.h_real`` itself, not a copy. J is -2 heff'heff with a zero diagonal,
    formed in place, and exactly symmetric: numpy forms ``X.T @ X`` with BLAS
    syrk, which computes one triangle, and copies it to the other; without
    BLAS, it sums entries (i, k) and (k, i) over the same products in order.
    """
    weights = spin_weights(rc.order)
    heff = rc.h_real if weights.size == 1 else np.kron(weights, rc.h_real)
    j_matrix = heff.T @ heff
    gram_trace = np.trace(j_matrix)
    j_matrix *= -2.0
    np.fill_diagonal(j_matrix, 0.0)
    return heff, j_matrix, gram_trace


def build_binary_model(rc: RealizedChannel, couplings: tuple | None = None) -> BinaryIsingModel:
    """Expand ||y_real - H_real x||^2, x = weights @ s.reshape(B, -1), into
    couplings, biases, and an offset.

    The model's energy -1/2 s'Js - h's plus its offset equals the residual
    for every spin assignment; the quadratic diagonal (s_i^2 = 1) is folded
    into the offset and the coupling diagonal is zero. ``couplings``, the
    :func:`binary_couplings` of rc's channel, leaves only the bias and the
    offset to compute, and every model built from it shares its J.
    """
    heff, j_matrix, gram_trace = binary_couplings(rc) if couplings is None else couplings
    h_vector = 2.0 * (heff.T @ rc.y_real)
    offset = float(gram_trace + rc.y_real @ rc.y_real)
    return BinaryIsingModel(j_matrix, h_vector, offset, n=h_vector.size)


def ising_energies(x: np.ndarray, j: np.ndarray, h: np.ndarray) -> np.ndarray:
    """-1/2 x'Jx - h'x for each column of an (m, rows) stack; ``h`` is (m, rows) or (m, 1).

    The one energy of both encodings: each model passes its own states, spins
    or [Re x; Im x] level values, one per column, with its ``j_matrix``. A
    column of a C-contiguous stack scores alike, bit for bit, whatever the
    width of its stack. An F-ordered stack, such as ``x[:, idx]`` or the
    transpose of a C-ordered array, is summed in another order.
    """
    if x.shape[1] == 1:
        # numpy sums a lone column in another order (gemv, contiguous
        # reductions) than a column of a stack: score it as one of two.
        return ising_energies(np.repeat(x, 2, axis=1), j, h)[:1]
    # x'J written sites-major, not Jx: OpenBLAS sums Jx's trailing columns in
    # another order, while x'J scores an equal state alike in every column.
    jx = np.empty(x.shape)
    np.matmul(x.T, j, out=jx.T)
    return -0.5 * np.einsum("ir,ir->r", jx, x) - np.einsum("ir,ir->r", x, h)


def _symbol_count(rc: RealizedChannel) -> int:
    """N of a QAM channel, whose unknown [Re x; Im x] has 2N entries."""
    if rc.order < 4:
        raise ValueError("symbol-native model is defined for QAM orders >= 4")
    return rc.h_real.shape[1] // 2


def pdit_couplings(rc: RealizedChannel) -> np.ndarray:
    """The p-dit coupling matrix [[J11, J12], [-J12, J11]] of rc's channel:
    -2 h_real'h_real, from h_real's Re and Im column blocks. J12's lower
    triangle is its negated upper one, not a sum in another order, so J is
    exactly symmetric and J12's diagonal exactly 0. It depends on neither
    rc's order nor its received vector."""
    n = _symbol_count(rc)
    re_cols, im_cols = rc.h_real[:, :n], rc.h_real[:, n:]
    j11 = -2.0 * (re_cols.T @ re_cols)
    upper = np.triu(-2.0 * (re_cols.T @ im_cols), 1)
    j12 = upper - upper.T
    return np.block([[j11, j12], [-j12, j11]])


def build_pdit_model(rc: RealizedChannel, j_matrix: np.ndarray | None = None) -> PditModel:
    """Expand ||y_real - H_real d||^2 - ||y_real||^2 into couplings and biases.

    Like :func:`build_binary_model`, it takes the instance from a
    :func:`realify` channel, and its bias 2 h_real'y_real is the binary one at
    spin weight 1; ``rc.order`` fixes only the admissible PAM levels.
    ``j_matrix``, the :func:`pdit_couplings` of rc's channel, leaves only the
    bias to compute, and every model built from it shares its J.
    """
    n = _symbol_count(rc)
    return PditModel(
        j_matrix=pdit_couplings(rc) if j_matrix is None else j_matrix,
        h_vector=2.0 * (rc.h_real.T @ rc.y_real),
        pam_levels=pam_levels(axis_level_count(rc.order)),
        n=n,
    )


def random_state_energies(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """Energies of ``count`` uniformly random states of a binary or p-dit model."""
    # One level index per state entry, drawn in the model's own layout.
    x = model.pam_levels[rng.integers(0, model.pam_levels.size, (count, model.h_vector.size))]
    return ising_energies(x.T, model.j_matrix, model.h_vector[:, None])
