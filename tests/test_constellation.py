"""Constellation construction, Gray labelling, and decisions."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingmimo import (
    build_constellation,
    decide,
    demodulate_symbols,
    modulate_bits,
    pam_levels,
)

ALL_ORDERS = [2, 4, 16, 64, 256]


class TestBuildConstellation:
    def test_bpsk_alphabet_and_energy(self):
        c = build_constellation(2)
        np.testing.assert_array_equal(np.sort(c.alphabet.real), [-1, 1])
        assert (c.alphabet.imag == 0).all()
        assert c.symbol_energy == 1.0

    def test_4qam_alphabet_and_energy(self):
        c = build_constellation(4)
        expected = {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        got = {(int(p.real), int(p.imag)) for p in c.alphabet}
        assert got == expected
        assert c.symbol_energy == pytest.approx(2.0, rel=1e-12)

    def test_16qam_energy_matches_enumeration(self):
        # Independent oracle: mean |a+bj|^2 over the 4x4 odd-integer grid.
        pts = [complex(a, b) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)]
        oracle = sum(abs(p) ** 2 for p in pts) / 16
        c = build_constellation(16)
        assert c.symbol_energy == pytest.approx(oracle, rel=1e-12)
        assert oracle == 10.0

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_energy_matches_brute_force(self, order):
        c = build_constellation(order)
        brute = np.mean(np.abs(c.alphabet) ** 2)
        assert c.symbol_energy == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_alphabet_distinct_and_sized(self, order):
        c = build_constellation(order)
        assert len(c.alphabet) == order
        assert len({(p.real, p.imag) for p in c.alphabet}) == order

    # 4.0 == 4 and hashes alike, so a cache keyed on the order would let it
    # through; the int check runs on every call.
    @pytest.mark.parametrize("bad", [0, 1, 3, 8, 32, 128, -4, 2.5, 4.0])
    def test_invalid_orders_rejected(self, bad):
        build_constellation(4)
        with pytest.raises(ValueError):
            build_constellation(bad)

    @pytest.mark.parametrize(
        "order,levels", [(2, (2, 1)), (4, (2, 2)), (16, (4, 4)), (64, (8, 8)), (256, (16, 16))]
    )
    def test_axis_levels(self, order, levels):
        c = build_constellation(order)
        assert c.axis_levels == levels
        np.testing.assert_array_equal(c.levels, pam_levels(levels[0]))
        # One read-only array, which every model of the constellation shares.
        assert c.levels is c.levels and not c.levels.flags.writeable

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_bit_table_is_the_msb_first_word(self, order):
        c = build_constellation(order)
        for word, row in enumerate(c.bit_table):
            assert "".join(map(str, row)) == format(word, f"0{c.bits_per_symbol}b")
        assert not c.bit_table.flags.writeable


class TestGrayProperty:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_axis_adjacent_points_differ_in_one_bit(self, order):
        c = build_constellation(order)
        labels = {
            (p.real, p.imag): demodulate_symbols(np.array([p]), c)
            for p in c.alphabet
        }
        checked = 0
        for (re, im), bits in labels.items():
            for dre, dim in ((2, 0), (0, 2)):
                other = (re + dre, im + dim)
                if other in labels:
                    assert int(np.sum(bits != labels[other])) == 1
                    checked += 1
        assert checked > 0


class TestModulateDemodulate:
    def test_bpsk_convention(self):
        c = build_constellation(2)
        np.testing.assert_array_equal(
            modulate_bits(np.array([0, 1]), c), np.array([-1, 1], dtype=complex)
        )

    def test_4qam_first_bit_is_real_axis(self):
        c = build_constellation(4)
        assert modulate_bits(np.array([0, 0]), c)[0] == -1 - 1j
        assert modulate_bits(np.array([1, 0]), c)[0] == 1 - 1j
        assert modulate_bits(np.array([0, 1]), c)[0] == -1 + 1j

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_exhaustive_round_trip(self, order):
        c = build_constellation(order)
        words = np.array(
            list(itertools.product((0, 1), repeat=c.bits_per_symbol))
        ).ravel()
        symbols = modulate_bits(words, c)
        assert len(set(symbols.tolist())) == order  # covers the whole alphabet
        np.testing.assert_array_equal(demodulate_symbols(symbols, c), words)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(ALL_ORDERS),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_random_round_trip(self, order, seed):
        c = build_constellation(order)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 8 * c.bits_per_symbol)
        np.testing.assert_array_equal(
            demodulate_symbols(modulate_bits(bits, c), c), bits
        )

    def test_length_not_divisible_rejected(self):
        c = build_constellation(4)
        with pytest.raises(ValueError, match="multiple"):
            modulate_bits(np.array([0, 1, 0]), c)

    def test_off_alphabet_symbol_rejected(self):
        c = build_constellation(4)
        with pytest.raises(ValueError, match="alphabet"):
            demodulate_symbols(np.array([0.5 + 1j]), c)
        with pytest.raises(ValueError, match="alphabet"):
            demodulate_symbols(np.array([3 + 1j]), c)

    @pytest.mark.parametrize("imag", [1.0, -1.0, 1e-300, np.nan])
    def test_bpsk_symbol_with_imaginary_part_rejected(self, imag):
        c = build_constellation(2)
        with pytest.raises(ValueError, match="alphabet"):
            demodulate_symbols(np.array([1.0 + 0j, complex(-1.0, imag)]), c)
        # -0.0 is zero.
        np.testing.assert_array_equal(
            demodulate_symbols(np.array([complex(1.0, -0.0)]), c), [1]
        )


class TestQuantize:
    """The symbols half of :func:`decide`: ``decide(z, c)[0]``."""

    def test_bpsk_examples(self):
        c = build_constellation(2)
        assert decide(0.3 + 0j, c)[0] == 1
        assert decide(-2.7 + 5j, c)[0] == -1
        assert decide(0.0 + 0j, c)[0] == 1  # tie toward positive

    def test_16qam_per_axis_rounding(self):
        c = build_constellation(16)
        assert decide(2.2 + 0.1j, c)[0] == 3 + 1j
        assert decide(-8 - 8j, c)[0] == -3 - 3j  # clamped
        assert decide(0 + 2j, c)[0] == 1 + 3j  # double tie upward

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_alphabet_is_fixed_point(self, order):
        # Exact levels, as the sphere decoder's minimizer holds them, decide
        # themselves bit for bit, with each point's label as its bits.
        c = build_constellation(order)
        symbols, bits = decide(c.alphabet, c)
        assert symbols.tobytes() == c.alphabet.tobytes()
        np.testing.assert_array_equal(bits, c.bit_table.ravel())

    def test_nearest_in_euclidean_distance(self):
        c = build_constellation(64)
        rng = np.random.default_rng(7)
        z = 10 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        q = decide(z, c)[0]
        # Oracle: brute-force nearest alphabet point (ties are measure zero here).
        dists = np.abs(z[:, None] - c.alphabet[None, :])
        brute = c.alphabet[np.argmin(dists, axis=1)]
        np.testing.assert_array_equal(q, brute)

    @pytest.mark.parametrize("z", [0.3 + 0j, -2.7 - 5j, 0.0 - 0j, 4.0 + 1e300j])
    def test_bpsk_imaginary_part_is_positive_zero(self, z):
        c = build_constellation(2)
        q = decide(np.array([z, -z]), c)[0]
        np.testing.assert_array_equal(q.imag, [0.0, 0.0])
        assert not np.signbit(q.imag).any()
        assert not np.signbit(decide(z, c)[0].imag)

    def test_non_finite_rejected(self):
        c = build_constellation(4)
        with pytest.raises(ValueError):
            decide(np.array([np.inf + 0j]), c)
        with pytest.raises(ValueError):
            decide(complex(np.nan, 0), c)


def _nearest_level(value, levels):
    """Brute force: the level nearest to ``value``, the more positive one on a tie."""
    best = min(abs(value - level) for level in levels)
    return max(level for level in levels if abs(value - level) == best)


# Quarter steps are exact in binary, so values midway between two levels
# occur and are decided exactly; beyond +-16 every order clamps.
_quarters = st.integers(-80, 80).map(lambda k: k / 4)
_axis_value = st.one_of(_quarters, st.floats(-1e6, 1e6))
_soft = st.builds(complex, _axis_value, _axis_value)
# Every input of the TestQuantize cases above, with its order.
_QUANTIZE_CASES = [
    (2, [0.3 + 0j, -2.7 + 5j, 0.0 + 0j]),
    (16, [2.2 + 0.1j, -8 - 8j, 0 + 2j]),
    *((2, [z, -z]) for z in (0.3 + 0j, -2.7 - 5j, 0.0 - 0j, 4.0 + 1e300j)),
    *((order, build_constellation(order).alphabet.tolist()) for order in ALL_ORDERS),
]


def _with_examples(cases):
    def decorate(test):
        for order, z in cases:
            test = example(order=order, z=z)(test)
        return test

    return decorate


class TestDecide:
    @settings(max_examples=300, deadline=None)
    @given(order=st.sampled_from(ALL_ORDERS), z=st.lists(_soft, min_size=1, max_size=6))
    @_with_examples(_QUANTIZE_CASES)
    def test_nearest_point_and_its_bits(self, order, z):
        c = build_constellation(order)
        z = np.array(z, dtype=complex)
        symbols, bits = decide(z, c)
        assert symbols.shape == z.shape
        assert symbols.tobytes() == _old_quantize(z, c).tobytes()
        expected = demodulate_symbols(symbols, c)
        assert bits.dtype == expected.dtype
        np.testing.assert_array_equal(bits, expected)
        for values, got, n_levels in zip(
            (z.real, z.imag), (symbols.real, symbols.imag), c.axis_levels
        ):
            levels = pam_levels(n_levels).tolist()
            for value, level in zip(values.tolist(), got.tolist()):
                if 4 * value == int(4 * value):  # exact: ties toward +, clamped at the edge
                    assert level == _nearest_level(value, levels)
                else:
                    slack = 1e-12 * max(1.0, abs(value))
                    assert all(abs(value - level) <= abs(value - other) + slack for other in levels)
        if order == 2:
            assert not np.signbit(symbols.imag).any()

    def test_scalar_gives_a_zero_dimensional_symbol(self):
        c = build_constellation(4)
        symbols, bits = decide(0.3 - 2j, c)
        assert symbols.shape == ()
        assert complex(symbols) == 1 - 1j
        np.testing.assert_array_equal(bits, demodulate_symbols(np.array([1 - 1j]), c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        c = build_constellation(16)
        with pytest.raises(ValueError, match="non-finite"):
            decide(np.array([1 + 1j, complex(1, bad)]), c)


# The decision rules as they were written per axis, with a separate BPSK
# case, before quantization and labelling became one table-driven pass over
# both axes. Kept here as an oracle for the table-driven code.


def _old_quantize(z, c):
    arr = np.asarray(z, dtype=complex)
    n_lev = 2 if c.order == 2 else int(round(np.sqrt(c.order)))

    def nearest(axis):
        rank = np.floor((axis + (n_lev - 1)) / 2 + 0.5)
        return 2 * np.clip(rank, 0, n_lev - 1) - (n_lev - 1)

    if c.order == 2:
        return nearest(arr.real).astype(complex)
    return nearest(arr.real) + 1j * nearest(arr.imag)


def _old_demodulate(symbols, c):
    """Bits of each symbol, or None if one of them is off the alphabet."""
    symbols = np.asarray(symbols, dtype=complex)
    gray = lambda rank: rank ^ (rank >> 1)  # noqa: E731
    with np.errstate(invalid="ignore"):
        if c.order == 2:
            rank = (symbols.real + 1) / 2
            words = np.rint(rank).astype(np.int64)
            ok = (symbols.imag == 0) & (rank == words) & (words >= 0) & (words <= 1)
        else:
            n_lev = int(round(np.sqrt(c.order)))
            ranks = []
            ok = np.ones(symbols.shape, dtype=bool)
            for axis in (symbols.real, symbols.imag):
                rank = (axis + (n_lev - 1)) / 2
                rank_int = np.rint(rank).astype(np.int64)
                ok &= (rank == rank_int) & (rank_int >= 0) & (rank_int < n_lev)
                ranks.append(rank_int)
            words = (gray(ranks[0]) << (c.bits_per_symbol // 2)) | gray(ranks[1])
    if not ok.all():
        return None
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1)
    return ((words[:, None] >> shifts) & 1).astype(np.int64).ravel()


class TestPerAxisOracle:
    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_same_bits_as_the_per_axis_rules(self, order):
        c = build_constellation(order)
        side = c.axis_levels[0]
        rng = np.random.default_rng(order)
        cases = []
        for trial in range(600):
            size = int(rng.integers(1, 9))
            if trial % 4 == 0:  # continuous values, inside and beyond the grid
                z = side * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
            elif trial % 4 == 1:  # exact ties: even integers sit between levels
                z = rng.integers(-side - 2, side + 3, size) + 1j * rng.integers(
                    -side - 2, side + 3, size
                )
            elif trial % 4 == 2:  # alphabet points
                z = c.alphabet[rng.integers(0, order, size)]
            else:  # alphabet points, some pushed off the grid
                z = c.alphabet[rng.integers(0, order, size)] + (rng.random(size) < 0.3) * (
                    0.5 + 0.5j * rng.integers(0, 2, size)
                )
            cases.append(np.asarray(z, dtype=complex))
        rejected = 0
        for z in cases:
            assert decide(z, c)[0].tobytes() == _old_quantize(z, c).tobytes()
            expected = _old_demodulate(z, c)
            if expected is None:
                rejected += 1
                with pytest.raises(ValueError, match="alphabet"):
                    demodulate_symbols(z, c)
            else:
                got = demodulate_symbols(z, c)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
        assert 0 < rejected < len(cases)
