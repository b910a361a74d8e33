"""Linear detectors and the exact-ML sphere decoder against oracles."""

import numpy as np
import pytest

from isingmimo import baselines
from isingmimo import (
    SearchBudgetError,
    SingularChannelError,
    build_constellation,
    build_instance,
    demodulate_symbols,
    generate_channel,
    ml_exact,
    ml_exhaustive,
    mmse_detect,
    modulate_bits,
    noise_sigma_sq,
    pam_levels,
    quantize_to_alphabet,
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
        res = zf_detect(np.array([[2.0 + 0j]]), np.array([6.1 + 0j]), bpsk)
        assert res.symbols[0] == 1

    def test_noiseless_recovery(self, qam4):
        rng = np.random.default_rng(3)
        for trial in range(20):
            H = generate_channel(6, 6, trial)
            x = rng.choice(qam4.alphabet, 6)
            res = zf_detect(H, H @ x, qam4)
            np.testing.assert_array_equal(res.symbols, x)

    def test_rank_deficient_rejected(self, bpsk):
        H = np.ones((3, 2), dtype=complex)  # identical columns
        with pytest.raises(SingularChannelError):
            zf_detect(H, np.ones(3, dtype=complex), bpsk)

    def test_result_bookkeeping(self, qam4):
        H = generate_channel(4, 4, 9)
        x = qam4.alphabet[np.array([0, 1, 2, 3])]
        y = transmit(H, x, 0.5, 7)
        res = zf_detect(H, y, qam4)
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
            a = zf_detect(H, y, qam4)
            b = mmse_detect(H, y, 0.0, qam4.symbol_energy, qam4)
            np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_1x1_worked_example(self, qam4):
        # (1 + 2/2)^-1 * (1+1j) = (1+1j)/2, quantized to 1+1j.
        res = mmse_detect(
            np.array([[1.0 + 0j]]), np.array([1.0 + 1j]), 2.0, 2.0, qam4
        )
        assert res.symbols[0] == 1 + 1j

    def test_against_independent_reimplementation(self, bpsk):
        # Oracle: same formula assembled through a different linear-algebra
        # route (explicit inverse on the stacked real-valued system).
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = 16
            H = generate_channel(n, n, 200 + trial)
            x = rng.choice(bpsk.alphabet, n).real.astype(complex)
            sigma_sq = noise_sigma_sq(n, 1.0, 2, 8.0)
            y = transmit(H, x, sigma_sq, 300 + trial)
            res = mmse_detect(H, y, sigma_sq, 1.0, bpsk)

            reg = sigma_sq / 1.0
            gram = H.conj().T @ H + reg * np.eye(n)
            soft = np.linalg.inv(gram) @ H.conj().T @ y
            oracle = quantize_to_alphabet(soft, bpsk)
            np.testing.assert_array_equal(res.symbols, oracle)

    def test_negative_noise_rejected(self, bpsk):
        with pytest.raises(ValueError):
            mmse_detect(np.eye(2, dtype=complex), np.ones(2, dtype=complex), -1.0, 1.0, bpsk)


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


class TestExactMl:
    def test_1x1_bpsk(self, bpsk):
        res = ml_exact(np.array([[1.0 + 0j]]), np.array([0.3 + 0j]), bpsk)
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
            sd = ml_exact(inst.channel, inst.rx_vector, c)
            brute = ml_exhaustive(inst.channel, inst.rx_vector, c)
            np.testing.assert_array_equal(sd.symbols, brute.symbols)
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
                baselines._sphere_decode(r_mat, z, c.levels),
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
        x = baselines._sphere_decode(np.eye(1), np.array([z]), levels)
        assert x.tolist() == [expected]
        # The same rule with a scaled diagonal: the centre is z / R[0, 0].
        x = baselines._sphere_decode(2.0 * np.eye(1), np.array([2.0 * z]), levels)
        assert x.tolist() == [expected]

    def test_shared_factor_does_not_leak_between_channels(self, monkeypatch):
        # Cells of channels A, B, A, then A as 4-QAM and BPSK, and a singular
        # channel, solved in turn: each must equal a result computed with
        # nothing cached.
        qam16 = build_constellation(16)
        qam4 = build_constellation(4)
        bpsk = build_constellation(2)
        a, _ = build_instance(qam16, 3, 8.0, 41)
        b, _ = build_instance(qam16, 3, 8.0, 42)
        singular = np.ones((3, 3), dtype=complex)
        rng = np.random.default_rng(900)
        cells = []
        for H, c in (
            (a.channel, qam16),
            (b.channel, qam16),
            (a.channel, qam16),
            (a.channel, qam4),
            (a.channel, bpsk),
            (singular, qam16),
            (a.channel, qam16),
        ):
            for _ in range(3):
                noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                cells.append((H, a.rx_vector + noise, c))

        def decide(H, y, c):
            try:
                return ml_exact(H, y, c).symbols
            except SingularChannelError:
                return None

        shared = [decide(*cell) for cell in cells]
        assert sum(s is None for s in shared) == 3
        for (H, y, c), got in zip(cells, shared):
            monkeypatch.setattr(baselines, "_last_channel", None)
            fresh = decide(H.copy(), y, c)
            if fresh is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, fresh)

    def test_one_factorization_per_channel(self, monkeypatch):
        monkeypatch.setattr(baselines, "_last_channel", None)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(1) or qr(a))
        qam16 = build_constellation(16)
        for channel in range(3):
            for message in range(4):
                inst, _ = build_instance(qam16, 3, 10.0, 5, channel, message)
                ml_exact(inst.channel, inst.rx_vector, qam16)
        assert len(calls) == 3

    def test_never_beaten_on_residual(self, qam4):
        for trial in range(30):
            inst, _ = build_instance(qam4, 6, 7.0, 50 + trial)
            args = (inst.channel, inst.rx_vector)
            best = ml_exact(*args, qam4).residual_energy
            assert best <= zf_detect(*args, qam4).residual_energy + 1e-9
            assert (
                best
                <= mmse_detect(*args, inst.sigma_sq, qam4.symbol_energy, qam4).residual_energy
                + 1e-9
            )

    def test_budget_guard(self, qam4):
        H = generate_channel(40, 40, 0)
        y = np.zeros(40, dtype=complex)
        with pytest.raises(SearchBudgetError):
            ml_exact(H, y, qam4)  # 4^40 > 2^48
        # A space of exactly the default budget, 4^24 == 2^48, is searched;
        # a budget just below it refuses.
        budget = baselines.ML_SEARCH_BUDGET
        assert 4.0**24 == budget
        x = qam4.alphabet[np.arange(24) % 4]
        H = generate_channel(24, 24, 1)
        np.testing.assert_array_equal(ml_exact(H, H @ x, qam4).symbols, x)
        with pytest.raises(SearchBudgetError):
            ml_exact(H, H @ x, qam4, max_search_space=np.nextafter(budget, 0))
        with pytest.raises(SearchBudgetError):
            ml_exhaustive(H, y, qam4, max_candidates=2**10)

    def test_budget_configurable(self, bpsk):
        inst, _ = build_instance(bpsk, 8, 10.0, 3)
        with pytest.raises(SearchBudgetError):
            ml_exact(inst.channel, inst.rx_vector, bpsk, max_search_space=2**7)
        res = ml_exact(inst.channel, inst.rx_vector, bpsk, max_search_space=2**8)
        assert res.method == "ml"


class TestPerChannelFactors:
    """ZF, MMSE and ML keep one channel's factors, keyed on H's contents."""

    @staticmethod
    def _detect(H, y, sigma_sq, c):
        out = []
        for detect in (
            lambda: zf_detect(H, y, c),
            lambda: mmse_detect(H, y, sigma_sq, c.symbol_energy, c),
            lambda: ml_exact(H, y, c),
        ):
            try:
                res = detect()
            except SingularChannelError:
                out.append(None)
            else:
                out.append((res.symbols.tobytes(), res.bits.tobytes(), res.residual_energy))
        return out

    def test_alternating_channels_match_a_fresh_cache(self, monkeypatch):
        # Two channels of one shape, their cells interleaved, each detector
        # called on every cell: nothing of one channel may reach the other.
        qam16 = build_constellation(16)
        cells = []
        for message in range(4):
            for channel in (0, 1):
                inst, _ = build_instance(qam16, 4, 9.0, 61, channel, message)
                cells.append((inst.channel, inst.rx_vector, inst.sigma_sq))
        assert cells[0][0].shape == cells[1][0].shape
        assert not np.array_equal(cells[0][0], cells[1][0])
        shared = [self._detect(H, y, s, qam16) for H, y, s in cells]
        for (H, y, s), got in zip(cells, shared):
            monkeypatch.setattr(baselines, "_last_channel", None)
            assert got == self._detect(H.copy(), y, s, qam16)

    def test_key_is_the_contents_not_the_object(self):
        qam4 = build_constellation(4)
        x = qam4.alphabet[[0, 1, 2]]
        h0 = generate_channel(3, 3, 62)
        H = h0.copy()
        zf_detect(H, H @ x, qam4)
        # The same array changed in place is a new channel ...
        H[:] = generate_channel(3, 3, 63)
        np.testing.assert_array_equal(zf_detect(H, H @ x, qam4).symbols, x)
        # ... and an entry keeps its own copy of H: MMSE's Gram, first
        # needed after the caller's array changed, is still h0's.
        H[:] = h0
        zf_detect(H, H @ x, qam4)
        H[:] = generate_channel(3, 3, 63)
        res = mmse_detect(h0, h0 @ x, 0.0, qam4.symbol_energy, qam4)
        np.testing.assert_array_equal(res.symbols, x)

    def test_zf_raises_on_every_cell_of_a_rank_deficient_channel(self, qam4):
        # Every column is a multiple of the first: rank 1, decided by the
        # SVD's relative threshold as lstsq decides it.
        rng = np.random.default_rng(64)
        col = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        H = np.stack([col, 2 * col, -col], axis=1)
        assert np.linalg.lstsq(H, col, rcond=None)[2] < 3
        for _ in range(4):
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            with pytest.raises(SingularChannelError, match="rank 1 < 3"):
                zf_detect(H, y, qam4)
        # A well-conditioned channel after it decides again.
        good = generate_channel(3, 3, 65)
        x = qam4.alphabet[[0, 1, 2]]
        np.testing.assert_array_equal(zf_detect(good, good @ x, qam4).symbols, x)

    def test_bpsk_and_qam_ml_get_their_own_factors(self, monkeypatch):
        monkeypatch.setattr(baselines, "_last_channel", None)
        bpsk, qam4 = build_constellation(2), build_constellation(4)
        H = generate_channel(3, 3, 66)
        xb = bpsk.alphabet[[0, 1, 1]]
        xq = qam4.alphabet[[3, 0, 2]]
        np.testing.assert_array_equal(ml_exact(H, H @ xb, bpsk).symbols, xb)
        np.testing.assert_array_equal(ml_exact(H, H @ xq, qam4).symbols, xq)
        np.testing.assert_array_equal(ml_exact(H, H @ xb, bpsk).symbols, xb)
        factors = baselines._last_channel._qr
        assert set(factors) == {2, 4}
        assert factors[2][1].shape == (3, 3)
        assert factors[4][1].shape == (6, 6)

    def test_one_factorization_per_channel_and_none_per_cell(self, monkeypatch):
        # ZF takes one SVD and MMSE one Gram matrix per channel; no cell
        # calls lstsq.
        monkeypatch.setattr(baselines, "_last_channel", None)
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
            for message in range(4):
                inst, _ = build_instance(qam16, 3, 10.0, 67, channel, message)
                zf_detect(inst.channel, inst.rx_vector, qam16)
                mmse_detect(
                    inst.channel, inst.rx_vector, inst.sigma_sq, qam16.symbol_energy, qam16
                )
                grams.append(baselines._last_channel.mmse[1])
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
            for name, res in (
                ("zf", zf_detect(inst.channel, inst.rx_vector, qam4)),
                (
                    "mmse",
                    mmse_detect(
                        inst.channel,
                        inst.rx_vector,
                        inst.sigma_sq,
                        qam4.symbol_energy,
                        qam4,
                    ),
                ),
            ):
                errs[name] += int(np.count_nonzero(res.bits != bits))
        assert errs["zf"] > errs["mmse"] > 0
