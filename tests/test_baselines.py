"""Linear detectors and the exact-ML sphere decoder against oracles."""

import math

import numpy as np
import pytest

from isingmimo import baselines
from isingmimo import (
    ChannelFactors,
    SearchBudgetError,
    SingularChannelError,
    build_constellation,
    build_instance,
    decide,
    demodulate_symbols,
    generate_channel,
    ml_exact,
    ml_exhaustive,
    mmse_detect,
    modulate_bits,
    noise_sigma_sq,
    pam_levels,
    realify,
    transmit,
    zf_detect,
)


@pytest.fixture(scope="module")
def bpsk():
    return build_constellation(2)


@pytest.fixture(scope="module")
def qam4():
    return build_constellation(4)


class TestZeroForcing:
    def test_scale_invariance_1x1(self, bpsk):
        res = zf_detect(ChannelFactors(np.array([[2.0 + 0j]])), np.array([6.1 + 0j]), bpsk)
        assert res.symbols[0] == 1

    def test_noiseless_recovery(self, qam4):
        rng = np.random.default_rng(3)
        for trial in range(20):
            H = generate_channel(6, 6, trial)
            x = rng.choice(qam4.alphabet, 6)
            res = zf_detect(ChannelFactors(H), H @ x, qam4)
            np.testing.assert_array_equal(res.symbols, x)

    def test_rank_deficient_rejected(self, bpsk):
        H = np.ones((3, 2), dtype=complex)  # identical columns
        with pytest.raises(SingularChannelError):
            zf_detect(ChannelFactors(H), np.ones(3, dtype=complex), bpsk)

    def test_result_bookkeeping(self, qam4):
        H = generate_channel(4, 4, 9)
        x = qam4.alphabet[np.array([0, 1, 2, 3])]
        y = transmit(H, x, 0.5, 7)
        res = zf_detect(ChannelFactors(H), y, qam4)
        assert res.method == "zf"
        np.testing.assert_array_equal(res.bits, demodulate_symbols(res.symbols, qam4))
        assert res.residual_energy == pytest.approx(
            np.linalg.norm(y - H @ res.symbols) ** 2, rel=1e-9
        )


class TestMmse:
    def test_equals_zf_at_zero_noise(self, qam4):
        rng = np.random.default_rng(5)
        for trial in range(20):
            H = generate_channel(5, 5, 100 + trial)
            y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            factors = ChannelFactors(H)
            a = zf_detect(factors, y, qam4)
            b = mmse_detect(factors, y, 0.0, qam4)
            np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_1x1_worked_example(self, qam4):
        # (1 + 2/2)^-1 * (1+1j) = (1+1j)/2, quantized to 1+1j; Es = 2.
        assert qam4.symbol_energy == pytest.approx(2.0)
        res = mmse_detect(ChannelFactors(np.array([[1.0 + 0j]])), np.array([1.0 + 1j]), 2.0, qam4)
        assert res.symbols[0] == 1 + 1j

    def test_against_independent_reimplementation(self, bpsk):
        # Oracle: same formula assembled through a different linear-algebra
        # route (explicit inverse on the stacked real-valued system).
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = 16
            H = generate_channel(n, n, 200 + trial)
            x = rng.choice(bpsk.alphabet, n).real.astype(complex)
            sigma_sq = noise_sigma_sq(n, bpsk, 8.0)
            y = transmit(H, x, sigma_sq, 300 + trial)
            res = mmse_detect(ChannelFactors(H), y, sigma_sq, bpsk)

            reg = sigma_sq / 1.0
            gram = H.conj().T @ H + reg * np.eye(n)
            soft = np.linalg.inv(gram) @ H.conj().T @ y
            oracle = decide(soft, bpsk)[0]
            np.testing.assert_array_equal(res.symbols, oracle)

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
    def test_same_float_as_the_formula_of_es(self, order, monkeypatch):
        # Es comes from the constellation; the soft values, symbols, bits and
        # residual are those of the formula with Es passed apart.
        c = build_constellation(order)
        softs = []
        real_decide = baselines.decide
        monkeypatch.setattr(
            baselines, "decide", lambda z, c: softs.append(z) or real_decide(z, c)
        )
        for trial in range(12):
            inst, _ = build_instance(c, 4, 3.0 * trial - 6.0, 40 + trial)
            factors = ChannelFactors(inst.channel)
            res = mmse_detect(factors, inst.rx_vector, inst.sigma_sq, c)
            es = c.symbol_energy
            h_herm, gram, eye = factors.mmse
            soft = np.linalg.solve(gram + (inst.sigma_sq / es) * eye, h_herm @ inst.rx_vector)
            symbols, bits = real_decide(soft, c)
            r = inst.rx_vector - inst.channel @ symbols
            assert softs[-1].tobytes() == soft.tobytes()
            assert res.symbols.tobytes() == symbols.tobytes()
            assert res.bits.tobytes() == bits.tobytes()
            assert res.residual_energy == float(np.vdot(r, r).real)

    def test_negative_noise_rejected(self, bpsk):
        with pytest.raises(ValueError):
            mmse_detect(
                ChannelFactors(np.eye(2, dtype=complex)), np.ones(2, dtype=complex), -1.0, bpsk
            )


def _argsort_sphere_decode(r_mat, z, levels):
    """Reference decoder: the same search on numpy scalars, each node's
    children ordered by a stable argsort of their distance to its centre."""
    q = r_mat.shape[0]
    n_lev = levels.size
    x = np.zeros(q)
    cand = np.zeros((q, n_lev), dtype=np.intp)
    pos = np.zeros(q, dtype=np.intp)
    acc = np.zeros(q)
    e = np.zeros(q)
    best_x, best_cost = None, np.inf

    def enter(k):
        e[k] = z[k] - r_mat[k, k + 1 :] @ x[k + 1 :]
        cand[k] = np.argsort(np.abs(levels - e[k] / r_mat[k, k]), kind="stable")
        pos[k] = 0

    k = q - 1
    enter(k)
    while k < q:
        if pos[k] < n_lev:
            lev = levels[cand[k, pos[k]]]
            pos[k] += 1
            cost = acc[k] + (e[k] - r_mat[k, k] * lev) ** 2
            if cost < best_cost:
                x[k] = lev
                if k > 0:
                    acc[k - 1] = cost
                    k -= 1
                    enter(k)
                    continue
                best_cost, best_x = cost, x.copy()
        k += 1
    return best_x


def _decoded_levels(r_mat, z, levels):
    """The sphere decoder's minimizer, the levels it returns on list inputs,
    as ``ChannelFactors.ml`` builds them."""
    rows = r_mat.tolist()
    x = baselines._sphere_decode(
        rows, [row[k] for k, row in enumerate(rows)], z.tolist(), levels.tolist()
    )
    assert all(level in levels for level in x)
    return np.array(x)


class TestExactMl:
    def test_1x1_bpsk(self, bpsk):
        res = ml_exact(ChannelFactors(np.array([[1.0 + 0j]])), np.array([0.3 + 0j]), bpsk)
        assert res.symbols[0] == 1

    @pytest.mark.parametrize(
        "order,n,count",
        [(2, 16, 40), (4, 8, 40), (16, 4, 20), (64, 2, 30), (64, 3, 6), (256, 2, 12)],
    )
    def test_matches_exhaustive_oracle(self, order, n, count):
        # search spaces up to 2^18; decisions must agree exactly. 64- and
        # 256-QAM step outward through 8 and 16 levels per axis.
        c = build_constellation(order)
        for trial in range(count):
            ebn0 = (5.0, 9.0, 13.0)[trial % 3]
            inst, _ = build_instance(c, n, ebn0, 1000 * order + trial)
            sd = ml_exact(ChannelFactors(inst.channel), inst.rx_vector, c)
            brute = ml_exhaustive(inst.channel, inst.rx_vector, c)
            np.testing.assert_array_equal(sd.symbols, brute.symbols)
            np.testing.assert_array_equal(sd.bits, demodulate_symbols(sd.symbols, c))
            assert sd.residual_energy == pytest.approx(
                brute.residual_energy, rel=1e-9
            )

    @pytest.mark.parametrize(
        "order,n,count", [(2, 24, 20), (4, 10, 20), (16, 6, 20), (64, 4, 10), (256, 3, 10)]
    )
    def test_matches_argsort_reference_beyond_oracle_sizes(self, order, n, count):
        c = build_constellation(order)
        for trial in range(count):
            inst, _ = build_instance(c, n, (4.0, 10.0, 16.0)[trial % 3], 3000 + trial)
            rc = realify(inst.channel, inst.rx_vector, order)
            q_mat, r_mat = np.linalg.qr(rc.h_real)
            z = q_mat.T @ rc.y_real
            np.testing.assert_array_equal(
                _decoded_levels(r_mat, z, c.levels),
                _argsort_sphere_decode(r_mat, z, c.levels),
            )

    @pytest.mark.parametrize(
        "n_levels,z,expected",
        [
            (2, 0.0, -1.0),  # midway between the two BPSK levels
            (4, 0.0, -1.0),
            (4, 2.0, 1.0),
            (16, 4.0, 3.0),
            (16, -8.0, -9.0),
            (4, 1.0, 1.0),  # on a level
            (4, 100.0, 3.0),  # beyond the outermost level
            (16, -1e6, -15.0),
        ],
    )
    def test_equidistant_levels_pick_the_lower(self, n_levels, z, expected):
        levels = pam_levels(n_levels)
        for scale in (1.0, 2.0):
            # The same rule with a scaled diagonal: the centre is z / R[0, 0].
            args = (scale * np.eye(1), np.array([scale * z]), levels)
            x = _decoded_levels(*args)
            assert x.tolist() == [expected]
            np.testing.assert_array_equal(x, _argsort_sphere_decode(*args))

    def test_shared_factor_does_not_leak_between_channels(self):
        # Cells of channels A, B, A, then A as 4-QAM and BPSK, and a singular
        # channel, solved in turn, each with its own channel's factors: each
        # must equal a result computed from fresh factors.
        qam16 = build_constellation(16)
        qam4 = build_constellation(4)
        bpsk = build_constellation(2)
        a, _ = build_instance(qam16, 3, 8.0, 41)
        b, _ = build_instance(qam16, 3, 8.0, 42)
        fa, fb = ChannelFactors(a.channel), ChannelFactors(b.channel)
        singular = ChannelFactors(np.ones((3, 3), dtype=complex))
        rng = np.random.default_rng(900)
        cells = []
        for factors, c in (
            (fa, qam16),
            (fb, qam16),
            (fa, qam16),
            (fa, qam4),
            (fa, bpsk),
            (singular, qam16),
            (fa, qam16),
        ):
            for _ in range(3):
                noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                cells.append((factors, a.rx_vector + noise, c))

        def decide(factors, y, c):
            try:
                return ml_exact(factors, y, c).symbols
            except SingularChannelError:
                return None

        shared = [decide(*cell) for cell in cells]
        assert sum(s is None for s in shared) == 3
        for (factors, y, c), got in zip(cells, shared):
            fresh = decide(ChannelFactors(factors.H.copy()), y, c)
            if fresh is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, fresh)

    def test_one_factorization_per_channel(self, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(1) or qr(a))
        qam16 = build_constellation(16)
        for channel in range(3):
            factors = ChannelFactors(build_instance(qam16, 3, 10.0, 5, channel)[0].channel)
            for message in range(4):
                inst, _ = build_instance(qam16, 3, 10.0, 5, channel, message)
                ml_exact(factors, inst.rx_vector, qam16)
        assert len(calls) == 3

    def test_never_beaten_on_residual(self, qam4):
        for trial in range(30):
            inst, _ = build_instance(qam4, 6, 7.0, 50 + trial)
            args = (ChannelFactors(inst.channel), inst.rx_vector)
            best = ml_exact(*args, qam4).residual_energy
            assert best <= zf_detect(*args, qam4).residual_energy + 1e-9
            assert best <= mmse_detect(*args, inst.sigma_sq, qam4).residual_energy + 1e-9

    def test_budget_guard(self, qam4, monkeypatch):
        H = generate_channel(40, 40, 0)
        y = np.zeros(40, dtype=complex)
        with pytest.raises(SearchBudgetError):
            ml_exact(ChannelFactors(H), y, qam4)  # 4^40 > 2^48
        # A space of exactly the default budget, 4^24 == 2^48, is searched;
        # a budget just below it refuses.
        budget = baselines.ML_SEARCH_BUDGET
        assert 4.0**24 == budget
        x = qam4.alphabet[np.arange(24) % 4]
        H = generate_channel(24, 24, 1)
        factors = ChannelFactors(H)
        np.testing.assert_array_equal(ml_exact(factors, H @ x, qam4).symbols, x)
        monkeypatch.setattr(baselines, "ML_SEARCH_BUDGET", np.nextafter(budget, 0))
        with pytest.raises(SearchBudgetError):
            ml_exact(factors, H @ x, qam4)
        with pytest.raises(SearchBudgetError):
            ml_exhaustive(H, y, qam4, max_candidates=2**10)

    @pytest.mark.parametrize("order, n", [(2, 1024), (16, 256)])
    def test_budget_guard_past_the_float_range(self, order, n):
        # order**n is 2**1024: as a float it raised OverflowError.
        factors = ChannelFactors(np.ones((1, n), dtype=complex))
        with pytest.raises(SearchBudgetError, match=f"{order}\\*\\*{n}"):
            ml_exact(factors, np.zeros(1, dtype=complex), build_constellation(order))

    def test_budget_configurable(self, bpsk, monkeypatch):
        inst, _ = build_instance(bpsk, 8, 10.0, 3)
        factors = ChannelFactors(inst.channel)
        monkeypatch.setattr(baselines, "ML_SEARCH_BUDGET", 2**7)
        with pytest.raises(SearchBudgetError):
            ml_exact(factors, inst.rx_vector, bpsk)
        monkeypatch.setattr(baselines, "ML_SEARCH_BUDGET", 2**8)
        res = ml_exact(factors, inst.rx_vector, bpsk)
        assert res.method == "ml"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("detector", ["zf", "mmse", "ml"])
def test_non_finite_y_rejected(detector, bad):
    qam16 = build_constellation(16)
    factors = ChannelFactors(np.eye(3) + 0j)
    y = np.array([bad, 1, 1], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        if detector == "zf":
            zf_detect(factors, y, qam16)
        elif detector == "mmse":
            mmse_detect(factors, y, 0.1, qam16)
        else:
            ml_exact(factors, y, qam16)


@pytest.mark.parametrize(
    "y", [[1e200, 1, 1], [1e160, 1, 1], [1.3e154, 1.3e154, 1], [1e154, 1e154j, 1e154]]
)
def test_ml_overflowing_y_rejected_naming_it(y):
    # Squaring 1e200 or 1e160 raised OverflowError from Python's float **;
    # two squares of 1.3e154 sum to inf, which left no leaf below the radius.
    factors = ChannelFactors(np.eye(3) + 0j)
    with pytest.raises(ValueError, match="too large for the exact search"):
        ml_exact(factors, np.array(y, dtype=complex), build_constellation(16))


@pytest.mark.parametrize("detector", ["zf", "mmse", "ml"])
@pytest.mark.parametrize("y", [[1e200, 1, 1], [1.3e154, 1.3e154, 1], [1e154, 1e154j, 1e154]])
def test_overflowing_residual_rejected_by_every_detector(detector, y):
    # ZF and MMSE returned residual_energy inf, with no warning, for a
    # finite y that ml_exact rejects.
    factors = ChannelFactors(np.eye(3) + 0j)
    y = np.array(y, dtype=complex)
    qam16 = build_constellation(16)
    detect = {
        "zf": lambda: zf_detect(factors, y, qam16),
        "mmse": lambda: mmse_detect(factors, y, 0.1, qam16),
        "ml": lambda: ml_exact(factors, y, qam16),
    }[detector]
    with pytest.raises(ValueError, match="y is too large for"):
        detect()


@pytest.mark.parametrize("detector", [zf_detect, mmse_detect])
def test_large_finite_residual_kept(detector):
    # Only a residual that overflows is rejected: 1e153 leaves one near 1e306.
    factors = ChannelFactors(np.eye(3) + 0j)
    qam16 = build_constellation(16)
    args = (0.1,) if detector is mmse_detect else ()
    res = detector(factors, np.array([1e153, 1, 1], dtype=complex), *args, qam16)
    assert 1e305 < res.residual_energy < math.inf


class TestPerChannelFactors:
    """ZF, MMSE and ML take a channel's factors from one ChannelFactors."""

    @staticmethod
    def _detect(factors, y, sigma_sq, c):
        out = []
        for detect in (
            lambda: zf_detect(factors, y, c),
            lambda: mmse_detect(factors, y, sigma_sq, c),
            lambda: ml_exact(factors, y, c),
        ):
            try:
                res = detect()
            except SingularChannelError:
                out.append(None)
            else:
                out.append((res.symbols.tobytes(), res.bits.tobytes(), res.residual_energy))
        return out

    def test_alternating_channels_match_a_fresh_cache(self):
        # Two channels of one shape, their cells interleaved, each detector
        # called on every cell with its own channel's factors: nothing of one
        # channel may reach the other.
        qam16 = build_constellation(16)
        factors = {}
        cells = []
        for message in range(4):
            for channel in (0, 1):
                inst, _ = build_instance(qam16, 4, 9.0, 61, channel, message)
                f = factors.setdefault(channel, ChannelFactors(inst.channel))
                cells.append((f, inst.rx_vector, inst.sigma_sq))
        assert factors[0].H.shape == factors[1].H.shape
        assert not np.array_equal(factors[0].H, factors[1].H)
        shared = [self._detect(f, y, s, qam16) for f, y, s in cells]
        for (f, y, s), got in zip(cells, shared):
            assert got == self._detect(ChannelFactors(f.H.copy()), y, s, qam16)

    def test_holds_h_as_given(self):
        # No copy: a caller who changes H in place builds new factors.
        H = generate_channel(3, 3, 62)
        assert ChannelFactors(H).H is H

    def test_zf_raises_on_every_cell_of_a_rank_deficient_channel(self, qam4):
        # Every column is a multiple of the first: rank 1, decided by the
        # SVD's relative threshold as lstsq decides it.
        rng = np.random.default_rng(64)
        col = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        H = np.stack([col, 2 * col, -col], axis=1)
        assert np.linalg.lstsq(H, col, rcond=None)[2] < 3
        factors = ChannelFactors(H)
        for _ in range(4):
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            with pytest.raises(SingularChannelError, match="rank 1 < 3"):
                zf_detect(factors, y, qam4)
        # A well-conditioned channel after it decides again.
        good = generate_channel(3, 3, 65)
        x = qam4.alphabet[[0, 1, 2]]
        np.testing.assert_array_equal(zf_detect(ChannelFactors(good), good @ x, qam4).symbols, x)

    def test_bpsk_and_qam_ml_get_their_own_factors(self):
        bpsk, qam4 = build_constellation(2), build_constellation(4)
        H = generate_channel(3, 3, 66)
        factors = ChannelFactors(H)
        xb = bpsk.alphabet[[0, 1, 1]]
        xq = qam4.alphabet[[3, 0, 2]]
        np.testing.assert_array_equal(ml_exact(factors, H @ xb, bpsk).symbols, xb)
        np.testing.assert_array_equal(ml_exact(factors, H @ xq, qam4).symbols, xq)
        np.testing.assert_array_equal(ml_exact(factors, H @ xb, bpsk).symbols, xb)
        qr = factors._qr
        assert set(qr) == {2, 4}
        assert np.shape(qr[2][1]) == (3, 3)
        assert np.shape(qr[4][1]) == (6, 6)

    def test_one_factorization_per_channel_and_none_per_cell(self, monkeypatch):
        # ZF takes one SVD and MMSE one Gram matrix per ChannelFactors; no
        # cell calls lstsq.
        svd_calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda *a, **k: svd_calls.append(1) or svd(*a, **k)
        )

        def no_lstsq(*args, **kwargs):
            raise AssertionError("a cell called lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        qam16 = build_constellation(16)
        grams = []
        for channel in range(3):
            factors = ChannelFactors(build_instance(qam16, 3, 10.0, 67, channel)[0].channel)
            for message in range(4):
                inst, _ = build_instance(qam16, 3, 10.0, 67, channel, message)
                zf_detect(factors, inst.rx_vector, qam16)
                mmse_detect(factors, inst.rx_vector, inst.sigma_sq, qam16)
                grams.append(factors.mmse[1])
        assert len(svd_calls) == 3
        assert len({id(g) for g in grams}) == 3


class TestOrderings:
    def test_zf_worse_than_mmse_in_noise(self, qam4):
        # Monte-Carlo ordering check at moderate noise; ZF should lose.
        n, trials = 8, 250
        errs = {"zf": 0, "mmse": 0}
        bits_total = 0
        for trial in range(trials):
            inst, bits = build_instance(qam4, n, 8.0, 7000 + trial)
            bits_total += bits.size
            factors = ChannelFactors(inst.channel)
            for name, res in (
                ("zf", zf_detect(factors, inst.rx_vector, qam4)),
                (
                    "mmse",
                    mmse_detect(factors, inst.rx_vector, inst.sigma_sq, qam4),
                ),
            ):
                errs[name] += int(np.count_nonzero(res.bits != bits))
        assert errs["zf"] > errs["mmse"] > 0
