"""Hamiltonian encodings of a MIMO instance.

Two equivalent encodings of the residual objective ||y - Hx||^2 are built
here: a binary spin model over {-1,+1}^n and a symbol-native model with one
variable per transmitted symbol, whose two axes take PAM-level values. The
binary model writes each real axis of the unknown as a binary expansion
L/2 s_1 + ... + 2 s_{B-1} + s_B over its L PAM levels (BPSK: one spin of
weight 1), so the modulation order enters it only through these per-spin
weights. Both act on real vectors with one coupling matrix and one bias
vector: spins, or the symbol axes [Re x; Im x] in the layout of the
real-stacked channel. Both store enough constants that their energies can be
compared directly against residual norms in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RealizedChannel, complex_symbols
from .constellation import build_constellation, pam_levels

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


@dataclass(frozen=True, eq=False)
class BinaryIsingModel:
    """Spin Hamiltonian -1/2 s'Js - h's whose value + offset is the residual norm."""

    j_matrix: np.ndarray
    h_vector: np.ndarray
    offset: float
    n: int


@dataclass(frozen=True, eq=False)
class PditModel:
    """Symbol-native Hamiltonian -1/2 d'Jd - h'd over N symbols with PAM-level axes.

    The state d = [Re x; Im x] has 2N entries, the layout of the real-stacked
    channel. ``j_matrix`` is the block matrix [[J11, J12], [-J12, J11]] with
    J11 symmetric and J12 antisymmetric, so it is symmetric; its diagonal is
    not zero. Couplings depend on the channel only; ``h_vector`` (2N,)
    depends on channel and received vector. ``n`` counts symbols, N.
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
    n_levels = build_constellation(order).levels.size  # rejects invalid orders
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
    rem = np.concatenate([x.real, x.imag])[:n_axes]
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
    two, so every entry is exact.
    """
    heff = np.kron(spin_weights(rc.order), rc.h_real)
    gram = heff.T @ heff
    j_matrix = -2.0 * gram
    np.fill_diagonal(j_matrix, 0.0)
    return heff, j_matrix, np.trace(gram)


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
    """-1/2 x'Jx - h'x for each row of a (rows, m) stack; ``h`` has the same shape.

    The one energy of both encodings: each model passes its own states, spins
    or [Re x; Im x] level values, with its ``j_matrix``.
    """
    return -0.5 * np.einsum("ri,ri->r", x @ j, x) - np.einsum("ri,ri->r", x, h)


def pdit_couplings(H: np.ndarray) -> np.ndarray:
    """The p-dit coupling matrix [[J11, J12], [-J12, J11]] of channel H."""
    H = np.asarray(H)
    h1, h2 = H.real, H.imag
    j11 = -2.0 * (h1.T @ h1 + h2.T @ h2)
    j12 = -2.0 * (-h1.T @ h2 + h2.T @ h1)
    return np.block([[j11, j12], [-j12, j11]])


def build_pdit_model(
    H: np.ndarray, y: np.ndarray, order: int, j_matrix: np.ndarray | None = None
) -> PditModel:
    """Symbol-native couplings and biases from the complex instance.

    ``order`` fixes only the admissible PAM levels; the couplings depend on
    H alone and the bias on (H, y). ``j_matrix``, the :func:`pdit_couplings`
    of H, leaves only the bias to compute, and is shared by the model.
    """
    if order < 4:
        raise ValueError("symbol-native model is defined for QAM orders >= 4")
    H = np.asarray(H)
    y = np.asarray(y)
    h1, h2 = H.real, H.imag
    y1, y2 = y.real, y.imag
    bias_re = 2.0 * (h1.T @ y1 + h2.T @ y2)
    bias_im = 2.0 * (h1.T @ y2 - h2.T @ y1)
    n_lev = int(round(np.sqrt(order)))
    return PditModel(
        j_matrix=pdit_couplings(H) if j_matrix is None else j_matrix,
        h_vector=np.concatenate([bias_re, bias_im]),
        pam_levels=pam_levels(n_lev),
        n=H.shape[1],
    )


def random_state_energies(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """Energies of ``count`` uniformly random states of a binary or p-dit model."""
    if isinstance(model, PditModel):
        levels = model.pam_levels
        # Drawn per site, (count, n, 2): the beta_sweep goldens pin this order.
        draw = levels[rng.integers(0, levels.size, (count, model.n, 2))]
        x = draw.transpose(0, 2, 1).reshape(count, 2 * model.n)
    else:
        x = rng.integers(0, 2, (count, model.n)) * 2.0 - 1.0
    return ising_energies(x, model.j_matrix, np.broadcast_to(model.h_vector, x.shape))
