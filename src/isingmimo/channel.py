"""Random MIMO channels, noisy transmission, and the stacked real-valued form.

All randomness flows through explicit seeds. Derived streams are built from
``numpy.random.SeedSequence((master, role, *indices))`` so that distinct
(role, indices) tuples yield statistically independent, reproducible streams;
role tags are the module-level ``ROLE_*`` constants. :func:`channel_instances`
owns the cell recipe; the harness draws every cell through it, and
:func:`build_instance` rebuilds any one cell from the same indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, build_constellation, modulate_bits

__all__ = [
    "MimoInstance",
    "RealizedChannel",
    "derive_seed",
    "derive_rng",
    "generate_channel",
    "noise_sigma_sq",
    "transmit",
    "realify",
    "real_channel",
    "stack_real",
    "complex_symbols",
    "channel_instances",
    "build_instance",
    "ROLE_CHANNEL",
    "ROLE_MESSAGE",
    "ROLE_NOISE",
    "ROLE_SOLVER",
    "ROLE_RANDOM_CONFIG",
]

ROLE_CHANNEL = 0
ROLE_MESSAGE = 1
ROLE_NOISE = 2
ROLE_SOLVER = 3
ROLE_RANDOM_CONFIG = 4


def derive_seed(master_seed: int, *fields: int) -> np.random.SeedSequence:
    """Independent child seed for (master, role, indices...)."""
    return np.random.SeedSequence((int(master_seed),) + tuple(int(f) for f in fields))


def derive_rng(master_seed: int, *fields: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, *fields))


@dataclass(frozen=True, eq=False)
class MimoInstance:
    """One detection problem: y = H x0 + n at a given noise level."""

    channel: np.ndarray
    tx_symbols: np.ndarray
    rx_vector: np.ndarray
    sigma_sq: float
    ebn0_db: float
    channel_index: int = 0
    message_index: int = 0
    ebn0_index: int = 0


@dataclass(frozen=True, eq=False)
class RealizedChannel:
    """Real-valued stacking of a complex instance, with its ``constellation``.

    QAM: h_real is the 2Nr x 2Nt block matrix [[Re H, -Im H], [Im H, Re H]]
    and the unknown is [Re x; Im x]. BPSK: h_real is the 2Nr x Nt stack
    [Re H; Im H] and the unknown is the real x itself. In both cases
    y_real = [Re y; Im y] and residual norms match the complex model;
    :func:`complex_symbols` turns the unknown back into symbols.
    """

    h_real: np.ndarray
    y_real: np.ndarray
    constellation: Constellation

    def with_received(self, y: np.ndarray) -> RealizedChannel:
        """The same channel and constellation objects with received vector ``y``."""
        return RealizedChannel(self.h_real, stack_real(y), self.constellation)


def stack_real(v: np.ndarray) -> np.ndarray:
    """[Re v; Im v]: a complex vector, or the rows of a matrix, in the real-valued layout."""
    return np.concatenate([np.real(v), np.imag(v)])


def generate_channel(n_rx: int, n_tx: int, seed) -> np.ndarray:
    """i.i.d. Rayleigh channel: entries CN(0, 1), deterministic given seed."""
    if n_tx < 1 or n_rx < n_tx:
        raise ValueError(f"need n_rx >= n_tx >= 1; got n_rx={n_rx}, n_tx={n_tx}")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(0.5)
    return scale * (
        rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    )


def noise_sigma_sq(n_tx: int, c: Constellation, ebn0_db: float) -> float:
    """Total per-entry complex noise variance for a target Eb/N0 in dB.

    sigma^2 = n_tx * c.symbol_energy / (log2(c.order) * 10**(ebn0_db / 10)).
    ``ebn0_db`` may be +inf (noiseless), giving 0; a finite value whose
    variance overflows, or is zero, is rejected.
    """
    if np.isnan(ebn0_db) or ebn0_db == -np.inf:
        raise ValueError(f"ebn0_db must be a real value or +inf; got {ebn0_db}")
    # log2(order) is bits_per_symbol. On Python floats an overflowing power or
    # a zero divisor raises, and an overflowing product gives inf, then 0.
    try:
        sigma_sq = n_tx * c.symbol_energy / (c.bits_per_symbol * 10.0 ** (float(ebn0_db) / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma_sq = math.inf
    if ebn0_db != math.inf and not 0.0 < sigma_sq < math.inf:
        raise ValueError(f"Eb/N0 of {ebn0_db} dB gives no usable noise variance")
    return sigma_sq


def transmit(H: np.ndarray, x0: np.ndarray, sigma_sq: float, seed) -> np.ndarray:
    """y = H x0 + n with circular complex noise of total variance sigma_sq."""
    H = np.asarray(H)
    x0 = np.asarray(x0)
    if H.ndim != 2 or x0.shape != (H.shape[1],):
        raise ValueError(f"shape mismatch: H {H.shape}, x0 {x0.shape}")
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be nonnegative")
    y = H @ x0
    if sigma_sq > 0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(sigma_sq / 2)
        n_rx = H.shape[0]
        y = y + scale * (rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx))
    return y


def real_channel(H: np.ndarray, order: int) -> np.ndarray:
    """The ``h_real`` of :class:`RealizedChannel`: H in the real-valued layout."""
    H = np.asarray(H)
    if order == 2:
        return stack_real(H)
    n_rx, n_tx = H.shape
    h_real = np.empty((2 * n_rx, 2 * n_tx), dtype=H.real.dtype)
    h_real[:n_rx, :n_tx] = h_real[n_rx:, n_tx:] = H.real
    np.negative(H.imag, out=h_real[:n_rx, n_tx:])
    h_real[n_rx:, :n_tx] = H.imag
    return h_real


def realify(H: np.ndarray, y: np.ndarray, order: int) -> RealizedChannel:
    """Stack a complex instance of modulation ``order`` into its real-valued
    form, with the order's constellation, built once per call. An invalid
    order fails before the real-valued channel is formed."""
    c = build_constellation(order)
    return RealizedChannel(real_channel(H, c.order), stack_real(y), c)


def complex_symbols(x_real: np.ndarray, n: int) -> np.ndarray:
    """The n symbols of a real unknown in :func:`realify`'s layout.

    n reals are BPSK symbols; 2n reals are [Re x; Im x].
    """
    x_real = np.asarray(x_real, dtype=float)
    if x_real.shape == (n,):
        return x_real.astype(complex)
    if x_real.shape != (2 * n,):
        raise ValueError(f"expected {n} or {2 * n} reals for {n} symbols; got {x_real.shape}")
    return x_real[:n] + 1j * x_real[n:]


def channel_instances(
    c: Constellation, n: int, master_seed: int, channel_index: int, messages, points
) -> list[tuple[MimoInstance, np.ndarray]]:
    """One ``(instance, bits)`` per (message, point) of a seeded square
    channel, message-major; every instance shares one H object.

    ``messages`` are message indices and ``points`` (index, Eb/N0 in dB)
    pairs, as ``enumerate`` yields them. Each draw has its own stream, keyed
    by the indices it depends on, so a cell does not depend on which other
    cells are drawn with it.
    """
    points = list(points)
    H = generate_channel(n, n, derive_seed(master_seed, ROLE_CHANNEL, channel_index))
    sigmas = [noise_sigma_sq(n, c, ebn0) for _, ebn0 in points]
    cells = []
    for msg in messages:
        bits = derive_rng(master_seed, ROLE_MESSAGE, channel_index, msg).integers(
            0, 2, n * c.bits_per_symbol
        )
        x0 = modulate_bits(bits, c)
        for (e_idx, ebn0), sigma_sq in zip(points, sigmas):
            noise_seed = derive_seed(master_seed, ROLE_NOISE, channel_index, msg, e_idx)
            inst = MimoInstance(
                channel=H,
                tx_symbols=x0,
                rx_vector=transmit(H, x0, sigma_sq, noise_seed),
                sigma_sq=float(sigma_sq),
                ebn0_db=float(ebn0),
                channel_index=channel_index,
                message_index=msg,
                ebn0_index=e_idx,
            )
            cells.append((inst, bits))
    return cells


def build_instance(
    c: Constellation,
    n: int,
    ebn0_db: float,
    master_seed: int,
    channel_index: int = 0,
    message_index: int = 0,
    ebn0_index: int = 0,
) -> tuple[MimoInstance, np.ndarray]:
    """The cell of :func:`channel_instances` at one (message, point)."""
    (cell,) = channel_instances(
        c, n, master_seed, channel_index, [message_index], [(ebn0_index, ebn0_db)]
    )
    return cell
