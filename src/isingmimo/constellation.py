"""Gray-coded constellations for BPSK and square M-QAM signalling.

Symbols live on a grid of PAM levels per axis, where PAM(L) is the L-level
ladder {-(L-1), ..., -3, -1, +1, +3, ..., +(L-1)} (PAM(1) is {0}). M-QAM has
sqrt(M) levels on each axis; BPSK is the same construction with 2 real levels
and a one-level imaginary axis, so its symbols are -1 and +1. Bit labels are
assigned per axis through a binary-reflected Gray code, so axis-adjacent
points differ in exactly one bit. The first half of each symbol's bits (MSB
first; BPSK: its one bit) addresses the real axis, the rest the imaginary
axis.

Decisions are table driven and treat both axes alike: quantization and the
inverse labelling each make one pass over the ``(..., 2)`` real view of a
complex array, with the per-axis level counts broadcast along its last
dimension, and demodulation looks each word up in a word->bits table built
once per constellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Constellation",
    "build_constellation",
    "axis_level_count",
    "modulate_bits",
    "demodulate_symbols",
    "quantize_to_alphabet",
    "pam_levels",
]


def pam_levels(n_levels: int) -> np.ndarray:
    """Amplitude ladder {-(L-1), ..., -1, +1, ..., +(L-1)} for one axis."""
    return np.arange(-(n_levels - 1), n_levels, 2, dtype=float)


def _gray_decode(code: np.ndarray) -> np.ndarray:
    rank = code.copy()
    shift = 1
    while (code >> shift).any():
        rank = rank ^ (code >> shift)
        shift += 1
    return rank


def _axis_bits(bits_per_symbol: int) -> tuple[int, int]:
    """Bits of the real and the imaginary axis: the real axis takes the odd one."""
    return (bits_per_symbol + 1) // 2, bits_per_symbol // 2


def _real_pairs(arr: np.ndarray) -> np.ndarray:
    """The (size, 2) float view [Re, Im] of a complex array (a copy only if
    ``arr`` is not contiguous)."""
    return arr.reshape(-1).view(float).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Modulation alphabet with its Gray bit labelling.

    ``alphabet[w]`` is the symbol labelled by the MSB-first bit expansion of
    the word ``w``; ``symbol_energy`` is the mean |x|^2 over the alphabet.
    """

    order: int
    alphabet: np.ndarray
    bits_per_symbol: int
    symbol_energy: float

    @cached_property
    def axis_levels(self) -> tuple[int, int]:
        """PAM level counts of the real and the imaginary axis: (2, 1) for
        BPSK, (sqrt(M), sqrt(M)) for M-QAM."""
        re_bits, im_bits = _axis_bits(self.bits_per_symbol)
        return 1 << re_bits, 1 << im_bits

    @property
    def levels(self) -> np.ndarray:
        """PAM levels of the real axis (BPSK: the two real points)."""
        return pam_levels(self.axis_levels[0])

    @cached_property
    def bit_table(self) -> np.ndarray:
        """Bits of each word, MSB first: row ``w`` is the label of ``alphabet[w]``."""
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        table = (np.arange(self.order, dtype=np.int64)[:, None] >> shifts) & 1
        table.flags.writeable = False
        return table

    @cached_property
    def _top_rank(self) -> np.ndarray:
        """Highest level index L - 1 of each axis, as floats: the offset that
        maps the axis values {-(L-1), ..., L-1} to 2 x {0, ..., L-1}."""
        top = np.array(self.axis_levels, dtype=float) - 1.0
        top.flags.writeable = False
        return top

    @cached_property
    def _rank_words(self) -> np.ndarray:
        """Word of the point at level indices (i, k), at entry i * L_im + k."""
        ranks = ((_real_pairs(self.alphabet) + self._top_rank) / 2).astype(np.int64)
        words = np.empty(self.order, dtype=np.int64)
        words[ranks @ (self.axis_levels[1], 1)] = np.arange(self.order)
        words.flags.writeable = False
        return words


def axis_level_count(order: int) -> int:
    """Real-axis PAM level count of a valid order: 2 for BPSK, sqrt(M) for M-QAM."""
    if isinstance(order, (int, np.integer)):
        exp = int(order).bit_length() - 1  # bits per symbol, if order is a power of 2
        if order == 2 or (order >= 4 and (1 << exp) == order and exp % 2 == 0):
            return 1 << _axis_bits(exp)[0]
    raise ValueError(
        f"modulation order must be 2 or an even power of 2 (4, 16, 64, ...); got {order!r}"
    )


def build_constellation(order: int) -> Constellation:
    """Build the Gray-labelled constellation of the given modulation order.

    Args:
        order: 2 for BPSK, otherwise an even power of 2 (4, 16, 64, 256, ...).

    Returns:
        An immutable :class:`Constellation`.
    """
    axis_level_count(order)  # rejects invalid orders
    order = int(order)
    bits_per_symbol = order.bit_length() - 1
    re_bits, im_bits = _axis_bits(bits_per_symbol)
    words = np.arange(order)
    re_rank = _gray_decode(words >> im_bits)
    im_rank = _gray_decode(words & ((1 << im_bits) - 1))
    alphabet = pam_levels(1 << re_bits)[re_rank] + 1j * pam_levels(1 << im_bits)[im_rank]
    energy = float(np.mean(np.abs(alphabet) ** 2))
    return Constellation(order, alphabet, bits_per_symbol, energy)


def modulate_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit vector onto symbols, MSB-first within each symbol group."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % c.bits_per_symbol != 0:
        raise ValueError(
            f"bit count {bits.size} is not a multiple of {c.bits_per_symbol}"
        )
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    groups = bits.astype(np.int64).reshape(-1, c.bits_per_symbol)
    weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
    return c.alphabet[groups @ weights]


def _words_of_symbols(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Invert the alphabet labelling; raises on off-alphabet points."""
    symbols = np.asarray(symbols, dtype=complex)
    rank = (_real_pairs(symbols) + c._top_rank) / 2
    # An axis value is a level iff its index is an integer in [0, L - 1], that
    # is iff clamping its nearest integer into that range gives it back.
    index = np.minimum(np.maximum(np.rint(rank), 0.0), c._top_rank)
    ok = rank == index
    if not ok.all():
        bad = symbols.reshape(-1)[~ok.all(axis=1)][0]
        raise ValueError(f"symbol {bad} is not a point of the order-{c.order} alphabet")
    return c._rank_words[np.dot(index, (c.axis_levels[1], 1)).astype(np.intp)]


def demodulate_symbols(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Exact inverse of :func:`modulate_bits`; rejects off-alphabet symbols."""
    return c.bit_table[_words_of_symbols(symbols, c)].ravel()


def quantize_to_alphabet(z, c: Constellation):
    """Nearest alphabet point, per axis, ties toward the more positive level.

    Accepts a complex scalar or array; returns the same shape. A one-level
    axis (BPSK's imaginary axis) quantizes to +0.0.
    """
    arr = np.asarray(z, dtype=complex)
    pairs = _real_pairs(arr)
    if not np.isfinite(pairs).all():
        raise ValueError("cannot quantize non-finite values")
    top = c._top_rank
    # Half-up rounding of the continuous level index resolves ties upward.
    # The floor is never -0.0, so clamping by maximum/minimum gives the same
    # bits as np.clip, in fewer calls.
    rank = np.minimum(np.maximum(np.floor((pairs + top) / 2 + 0.5), 0.0), top)
    out = (2 * rank - top).view(complex).reshape(arr.shape)
    if np.isscalar(z) or arr.ndim == 0:
        return complex(out)
    return out
