"""Hamiltonian encodings of a MIMO instance.

Two equivalent encodings of the residual objective ||y - Hx||^2 are built
here: a binary spin model over {-1,+1}^n obtained through a per-axis
binary-expansion transform, and a symbol-native model with one variable per
transmitted symbol, whose two axes take PAM-level values. Both act on real
vectors with one coupling matrix and one bias vector: spins, or the symbol
axes [Re x; Im x] in the layout of the real-stacked channel. Both store
enough constants that their energies can be compared directly against
residual norms in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import RealizedChannel
from .constellation import pam_levels

__all__ = [
    "TransformSpec",
    "BinaryIsingModel",
    "PditModel",
    "build_transform",
    "symbols_to_spins",
    "spins_to_symbols",
    "build_binary_model",
    "ising_energies",
    "build_pdit_model",
    "random_state_energies",
]


@dataclass(frozen=True, eq=False)
class TransformSpec:
    """Spin-to-amplitude transform x_real = t_matrix @ s.

    ``t_matrix`` is sqrt(M) * kron(v, I_2N) with v = [2^-1, ..., 2^-B],
    B = log2(sqrt(M)); the spin vector is laid out as B significance groups
    of 2N spins, most significant group first.
    """

    order: int
    n_sym: int
    b_per_axis: int
    v: np.ndarray
    t_matrix: np.ndarray


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


def build_transform(n_sym: int, order: int) -> TransformSpec:
    """Build the spin transform for an n_sym-symbol M-QAM instance."""
    if order < 4:
        raise ValueError("transform is defined for QAM orders >= 4; BPSK bypasses it")
    b = int(round(np.log2(np.sqrt(order))))
    if 4**b != order:
        raise ValueError(f"order must be an even power of 2; got {order}")
    v = 2.0 ** -np.arange(1, b + 1)
    t_matrix = np.sqrt(order) * np.kron(v, np.eye(2 * n_sym))
    return TransformSpec(order, n_sym, b, v, t_matrix)


def symbols_to_spins(x: np.ndarray, order: int) -> np.ndarray:
    """Binarize symbols into the spin layout of :func:`build_transform`.

    BPSK passes through (s = x). For QAM each axis value is peeled into B
    signed halvings: the most significant spin is the sign of the remainder
    at weight sqrt(M)/2, and so on down to weight 1.
    """
    x = np.asarray(x, dtype=complex)
    if order == 2:
        if not np.isin(x.real, (-1.0, 1.0)).all() or (x.imag != 0).any():
            raise ValueError("BPSK symbols must be -1 or +1")
        return x.real.astype(float)
    b = int(round(np.log2(np.sqrt(order))))
    levels = pam_levels(1 << b)
    axes = np.concatenate([x.real, x.imag])
    if not np.isin(axes, levels).all():
        raise ValueError(f"symbol axis values must lie on PAM({1 << b}) levels")
    groups = []
    rem = axes.copy()
    for k in range(1, b + 1):
        weight = np.sqrt(order) * 2.0**-k
        s_k = np.where(rem >= 0, 1.0, -1.0)
        rem = rem - weight * s_k
        groups.append(s_k)
    return np.concatenate(groups)


def spins_to_symbols(s: np.ndarray, n_sym: int, order: int) -> np.ndarray:
    """Inverse of :func:`symbols_to_spins`: apply the transform, recombine axes."""
    s = np.asarray(s, dtype=float)
    if order == 2:
        if s.shape != (n_sym,):
            raise ValueError(f"expected {n_sym} spins for BPSK, got {s.shape}")
        return s.astype(complex)
    t = build_transform(n_sym, order)
    if s.shape != (t.t_matrix.shape[1],):
        raise ValueError(
            f"expected {t.t_matrix.shape[1]} spins for N={n_sym}, M={order}; got {s.shape}"
        )
    x_real = t.t_matrix @ s
    return x_real[:n_sym] + 1j * x_real[n_sym:]


def build_binary_model(
    rc: RealizedChannel, transform: TransformSpec | None = None
) -> BinaryIsingModel:
    """Expand ||y_real - H_real T s||^2 into couplings, biases, and an offset.

    The model's energy -1/2 s'Js - h's plus its offset equals the residual
    for every spin assignment; the quadratic diagonal (s_i^2 = 1) is folded
    into the offset and the coupling diagonal is zero.
    """
    if transform is None:
        if not rc.bpsk_mode:
            raise ValueError("QAM realization requires a TransformSpec")
        heff = rc.h_real
    else:
        if rc.bpsk_mode:
            raise ValueError("BPSK realization does not take a transform")
        heff = rc.h_real @ transform.t_matrix
    gram = heff.T @ heff
    lin = heff.T @ rc.y_real
    j_matrix = -2.0 * gram
    np.fill_diagonal(j_matrix, 0.0)
    h_vector = 2.0 * lin
    offset = float(np.trace(gram) + rc.y_real @ rc.y_real)
    return BinaryIsingModel(j_matrix, h_vector, offset, n=h_vector.size)


def ising_energies(x: np.ndarray, j: np.ndarray, h: np.ndarray) -> np.ndarray:
    """-1/2 x'Jx - h'x for each row of a (rows, m) stack; ``h`` has the same shape.

    The one energy of both encodings: each model passes its own states, spins
    or [Re x; Im x] level values, with its ``j_matrix``.
    """
    return -0.5 * np.einsum("ri,ri->r", x @ j, x) - np.einsum("ri,ri->r", x, h)


def build_pdit_model(H: np.ndarray, y: np.ndarray, order: int) -> PditModel:
    """Symbol-native couplings and biases from the complex instance.

    ``order`` fixes only the admissible PAM levels; the couplings depend on
    H alone and the bias on (H, y).
    """
    if order < 4:
        raise ValueError("symbol-native model is defined for QAM orders >= 4")
    H = np.asarray(H)
    y = np.asarray(y)
    h1, h2 = H.real, H.imag
    y1, y2 = y.real, y.imag
    bias_re = 2.0 * (h1.T @ y1 + h2.T @ y2)
    bias_im = 2.0 * (h1.T @ y2 - h2.T @ y1)
    j11 = -2.0 * (h1.T @ h1 + h2.T @ h2)
    j12 = -2.0 * (-h1.T @ h2 + h2.T @ h1)
    n_lev = int(round(np.sqrt(order)))
    return PditModel(
        j_matrix=np.block([[j11, j12], [-j12, j11]]),
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
