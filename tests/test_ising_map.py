"""Hamiltonian encodings against direct residual-norm oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from isingmimo import (
    BinaryIsingModel,
    build_binary_model,
    build_constellation,
    build_instance,
    build_pdit_model,
    generate_channel,
    realify,
    spin_weights,
    spins_to_symbols,
    symbols_to_spins,
)
from isingmimo import ising_map
from isingmimo.channel import RealizedChannel
from isingmimo.ising_map import binary_couplings, ising_energies, pdit_couplings


def energy(x: np.ndarray, model) -> float:
    """The model's energy -1/2 x'Jx - h'x of one state."""
    return ising_energies(x[:, None], model.j_matrix, model.h_vector[:, None])[0]


def random_instance(n, order, seed, ebn0_db=9.0):
    c = build_constellation(order)
    inst, _ = build_instance(c, n, ebn0_db, seed)
    return c, inst


def dense_transform(n_sym, order):
    """The dense spin-to-axis matrix sqrt(M) kron(v, I_2N), v = [2^-1, ..., 2^-B],
    of an N-symbol QAM instance: the reference the per-axis weights reproduce."""
    b = int(round(np.log2(np.sqrt(order))))
    v = 2.0 ** -np.arange(1, b + 1)
    return np.sqrt(order) * np.kron(v, np.eye(2 * n_sym))


class TestTransform:
    """The spin-to-axis transform: one weight per spin of an axis."""

    def test_m4_is_identity(self):
        np.testing.assert_array_equal(spin_weights(4), [1.0])

    def test_bpsk_is_identity(self):
        # BPSK is the one-axis case of the same map.
        np.testing.assert_array_equal(spin_weights(2), [1.0])

    def test_m16_block_levels(self):
        # One axis of one symbol: spins (s1, s2) at weights (2, 1).
        weights = spin_weights(16)
        expected = {(1, 1): 3, (1, -1): 1, (-1, 1): -1, (-1, -1): -3}
        for spins, level in expected.items():
            assert weights @ np.array(spins, dtype=float) == level

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
    def test_axis_image_is_pam_grid(self, order):
        weights = spin_weights(order)
        images = sorted(
            weights @ np.array(spins)
            for spins in itertools.product((-1.0, 1.0), repeat=weights.size)
        )
        np.testing.assert_array_equal(images, build_constellation(order).levels)

    @pytest.mark.parametrize("order", [1, 3, 8, 32])
    def test_invalid_order_rejected(self, order):
        with pytest.raises(ValueError):
            spin_weights(order)

    def test_decoding_builds_no_constellation(self, monkeypatch):
        calls = []

        def spy(order):
            calls.append(order)
            return build_constellation(order)

        monkeypatch.setattr("isingmimo.constellation.build_constellation", spy)
        monkeypatch.setattr(ising_map, "build_constellation", spy, raising=False)
        for order in (2, 4, 16, 256):
            n_spins = 3 * round(np.log2(order))
            spins_to_symbols(np.ones(n_spins), 3, order)
        assert calls == []


class TestDenseTransformOracle:
    """The weights give the bytes of the dense path, in which BPSK takes the
    channel as it is and QAM multiplies it by :func:`dense_transform`."""

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
    def test_model_and_symbols_equal_the_dense_path(self, order):
        rng = np.random.default_rng(order)
        for trial in range(40):
            n = int(rng.integers(1, 7))
            _, inst = random_instance(n, order, seed=1000 * order + trial)
            rc = realify(inst.channel, inst.rx_vector, order)
            t = None if order == 2 else dense_transform(n, order)
            heff = rc.h_real if t is None else rc.h_real @ t
            gram = heff.T @ heff
            j_matrix = -2.0 * gram
            np.fill_diagonal(j_matrix, 0.0)
            model = build_binary_model(rc)
            assert np.array_equal(model.j_matrix, j_matrix)
            assert np.array_equal(model.h_vector, 2.0 * (heff.T @ rc.y_real))
            assert model.offset == float(np.trace(gram) + rc.y_real @ rc.y_real)

            s = rng.integers(0, 2, model.n) * 2.0 - 1.0
            if t is None:
                dense = s.astype(complex)
            else:
                x_real = t @ s
                dense = x_real[:n] + 1j * x_real[n:]
            assert np.array_equal(spins_to_symbols(s, n, order), dense)


class TestSpinConversions:
    def test_bpsk_passthrough(self):
        x = np.array([1, -1, -1, 1], dtype=complex)
        np.testing.assert_array_equal(symbols_to_spins(x, 2), x.real)
        np.testing.assert_array_equal(spins_to_symbols(x.real, 4, 2), x)

    def test_level_minus_one_spins(self):
        s = symbols_to_spins(np.array([-1 + 3j]), 16)
        # significance-major layout: real-axis spins are entries 0 and 2
        assert (s[0], s[2]) == (-1.0, 1.0)
        assert (s[1], s[3]) == (1.0, 1.0)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_exhaustive_inverse_single_symbol(self, order):
        c = build_constellation(order)
        for x in c.alphabet:
            xv = np.array([x])
            np.testing.assert_array_equal(
                spins_to_symbols(symbols_to_spins(xv, order), 1, order), xv
            )

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
    def test_random_round_trip(self, order):
        c = build_constellation(order)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.choice(c.alphabet, 6)
            if order == 2:
                x = x.real.astype(complex)
            np.testing.assert_array_equal(
                spins_to_symbols(symbols_to_spins(x, order), 6, order), x
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([0.5 + 0j]), 4)
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([5 + 1j]), 16)
        with pytest.raises(ValueError):
            symbols_to_spins(np.array([1 + 1j]), 2)
        with pytest.raises(ValueError):
            spins_to_symbols(np.ones(3), 4, 4)
        with pytest.raises(ValueError):
            # n * log2(M) spins: 4 spins are two 4-QAM symbols, not four.
            spins_to_symbols(np.ones(4), 4, 4)


class TestBinaryModel:
    def test_1x1_bpsk_example(self):
        rc = RealizedChannel(np.array([[1.0], [0.0]]), np.array([0.5, 0.0]), 2)
        model = build_binary_model(rc)
        assert model.n == 1
        np.testing.assert_allclose(model.h_vector, [1.0])
        for s, resid in ((np.array([1.0]), 0.25), (np.array([-1.0]), 2.25)):
            assert energy(s, model) + model.offset == pytest.approx(resid)

    @pytest.mark.parametrize("order,n", [(2, 8), (4, 8), (16, 4), (64, 2)])
    def test_energy_equals_residual(self, order, n):
        c, inst = random_instance(n, order, seed=11 * order + n)
        model = build_binary_model(realify(inst.channel, inst.rx_vector, order))
        rng = np.random.default_rng(0)
        for _ in range(32):
            s = rng.integers(0, 2, model.n) * 2.0 - 1.0
            x = spins_to_symbols(s, n, order)
            resid = np.linalg.norm(inst.rx_vector - inst.channel @ x) ** 2
            assert energy(s, model) + model.offset == pytest.approx(
                resid, rel=1e-9
            )

    def test_structure(self):
        c, inst = random_instance(6, 16, seed=5)
        rc = realify(inst.channel, inst.rx_vector, 16)
        model = build_binary_model(rc)
        np.testing.assert_array_equal(np.diag(model.j_matrix), np.zeros(model.n))
        np.testing.assert_allclose(model.j_matrix, model.j_matrix.T, atol=1e-12)

    def test_exactly_symmetric_with_zero_diagonal(self):
        # The oscillator drift reads each pair's coupling from one triangle.
        rng = np.random.default_rng(23)
        for order in (2, 4, 16, 256):
            for n in (1, 2, 3, 4, 5, 8, 16, 31, 32, 33, 64):
                for trial in range(20):
                    H = generate_channel(n, n, int(rng.integers(2**31)))
                    _, j, _ = binary_couplings(realify(H, np.zeros(n, dtype=complex), order))
                    np.testing.assert_array_equal(j, j.T)
                    assert (np.diag(j) == 0.0).all()

    @pytest.mark.parametrize("order, n", [(2, 256), (2, 33), (16, 64)])
    def test_coupling_build_holds_heff_and_j_only(self, order, n):
        # J is formed in the Gram's own buffer: the build's traced peak is
        # heff and J, with no scaled copy of the Gram and no index pairs.
        rc = realify(generate_channel(n, n, 3), np.zeros(n, dtype=complex), order)
        tracemalloc.start()
        try:
            heff, j, _ = binary_couplings(rc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= heff.nbytes + j.nbytes + 16_384

    @pytest.mark.parametrize("n", [1, 33, 64])
    def test_bpsk_heff_is_h_real(self, n):
        # BPSK's one spin weight is 1: heff is h_real itself, and J, the
        # trace and the bias are the bytes of the np.kron form; the build
        # allocates J alone.
        _, inst = random_instance(n, 2, 40 + n)
        rc = realify(inst.channel, inst.rx_vector, 2)
        tracemalloc.start()
        try:
            heff, j, trace = binary_couplings(rc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(heff, rc.h_real)
        assert peak <= j.nbytes + 16_384
        kron = np.kron(spin_weights(2), rc.h_real)
        gram = kron.T @ kron
        assert trace.tobytes() == np.trace(gram).tobytes()
        gram *= -2.0
        np.fill_diagonal(gram, 0.0)
        assert j.tobytes() == gram.tobytes()
        h = build_binary_model(rc, (heff, j, trace)).h_vector
        assert h.tobytes() == (2.0 * (kron.T @ rc.y_real)).tobytes()

    def test_coupling_depends_on_channel_only(self):
        c = build_constellation(4)
        inst1, _ = build_instance(c, 4, 9.0, 21, message_index=0)
        inst2, _ = build_instance(c, 4, 9.0, 21, message_index=1)
        np.testing.assert_array_equal(inst1.channel, inst2.channel)
        m1 = build_binary_model(realify(inst1.channel, inst1.rx_vector, 4))
        m2 = build_binary_model(realify(inst2.channel, inst2.rx_vector, 4))
        np.testing.assert_array_equal(m1.j_matrix, m2.j_matrix)
        assert not np.array_equal(m1.h_vector, m2.h_vector)

    def test_simple_energy_values(self):
        model = BinaryIsingModel(
            np.array([[0.0, 2.0], [2.0, 0.0]]), np.zeros(2), 0.0, 2
        )
        assert energy(np.array([1.0, 1.0]), model) == pytest.approx(-2.0)
        zero = BinaryIsingModel(np.zeros((2, 2)), np.zeros(2), 0.0, 2)
        assert energy(np.array([1.0, -1.0]), zero) == 0.0

    def test_argmin_matches_residual_argmin(self):
        # Exhaustive over 2^12 spin states on a 6x6 4-QAM instance.
        c, inst = random_instance(6, 4, seed=9, ebn0_db=6.0)
        rc = realify(inst.channel, inst.rx_vector, 4)
        model = build_binary_model(rc)
        states = np.array(list(itertools.product((-1.0, 1.0), repeat=model.n)))
        energies = np.array([energy(s, model) for s in states])
        # 4-QAM: one spin of weight 1 per axis, so the states are the unknowns.
        resids = np.linalg.norm(
            rc.y_real[None, :] - states @ rc.h_real.T, axis=1
        ) ** 2
        assert np.argmin(energies) == np.argmin(resids)


class TestPditModel:
    def test_1x1_worked_example(self):
        model = build_pdit_model(realify(np.array([[1.0 + 0j]]), np.array([3.0 + 1j]), 16))
        np.testing.assert_allclose(model.h_vector, [6.0, 2.0])
        np.testing.assert_allclose(model.j_matrix, [[-2.0, 0.0], [0.0, -2.0]])
        d = np.array([3.0, 1.0])
        assert energy(d, model) == pytest.approx(-10.0)

    def test_energy_equals_residual_minus_norm(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            n = int(rng.integers(1, 6))
            order = int(rng.choice([4, 16, 64]))
            H = generate_channel(n, n, int(rng.integers(2**31)))
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            model = build_pdit_model(realify(H, y, order))
            levels = model.pam_levels
            d = levels[rng.integers(0, levels.size, 2 * n)]
            x = d[:n] + 1j * d[n:]
            oracle = np.linalg.norm(y - H @ x) ** 2 - np.linalg.norm(y) ** 2
            assert energy(d, model) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_zero_channel_zero_energy(self):
        model = build_pdit_model(realify(np.zeros((3, 3), dtype=complex), np.ones(3) * 1j, 4))
        d = model.pam_levels[np.zeros(6, dtype=int)]
        assert energy(d, model) == 0.0

    def test_structure_and_channel_dependence(self):
        H = generate_channel(5, 5, 8)
        y1 = np.ones(5, dtype=complex)
        y2 = 2j * np.ones(5, dtype=complex)
        m1 = build_pdit_model(realify(H, y1, 16))
        m2 = build_pdit_model(realify(H, y2, 16))
        j = m1.j_matrix
        assert j.shape == (10, 10) and m1.h_vector.shape == (10,)
        np.testing.assert_allclose(j, j.T, atol=1e-12)
        a, b = j[:5, :5], j[:5, 5:]
        np.testing.assert_array_equal(j[5:, 5:], a)
        np.testing.assert_array_equal(j[5:, :5], -b)
        np.testing.assert_allclose(b, -b.T, atol=1e-12)
        np.testing.assert_array_equal(m1.j_matrix, m2.j_matrix)
        assert not np.array_equal(m1.h_vector, m2.h_vector)

    def test_couplings_independent_of_order_and_received_vector(self):
        # The abstract's claim: the p-dit interaction matrix does not depend
        # on the QAM order, nor on what was received.
        rng = np.random.default_rng(21)
        for n in (1, 3, 8):
            H = generate_channel(n, n, 100 + n)
            ys = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
            reference = pdit_couplings(realify(H, ys[0], 4)).tobytes()
            for order in (4, 16, 64, 256):
                for y in ys:
                    assert pdit_couplings(realify(H, y, order)).tobytes() == reference

    def test_exactly_symmetric_with_zero_j12_diagonal(self):
        rng = np.random.default_rng(22)
        for n in (2, 3, 5, 8, 16, 32, 64):
            for trial in range(5):
                H = generate_channel(n, n, int(rng.integers(2**31)))
                j = pdit_couplings(realify(H, np.zeros(n, dtype=complex), 16))
                np.testing.assert_array_equal(j, j.T)
                assert (np.diag(j[:n, n:]) == 0.0).all()

    def test_bpsk_rejected(self):
        rc = realify(generate_channel(2, 2, 3), np.ones(2, dtype=complex), 2)
        with pytest.raises(ValueError, match="QAM orders"):
            pdit_couplings(rc)
        with pytest.raises(ValueError, match="QAM orders"):
            build_pdit_model(rc)


class TestIsingEnergies:
    @pytest.mark.parametrize("rows", [2, 9, 12, 67])
    @pytest.mark.parametrize("kind,order,n", [("binary", 4, 8), ("binary", 16, 8), ("pdit", 4, 16)])
    def test_equal_states_score_alike_in_every_column(self, kind, order, n, rows):
        # A state's energy must not depend on its column in a stack, so that a
        # solve's best and its energies do not depend on how its rows are
        # batched or chunked.
        _, inst = random_instance(n, order, seed=n + order)
        build = build_pdit_model if kind == "pdit" else build_binary_model
        model = build(realify(inst.channel, inst.rx_vector, order))
        state = np.random.default_rng(rows).choice(model.pam_levels, model.h_vector.size)
        x = np.repeat(state[:, None], rows, axis=1)
        h = np.repeat(model.h_vector[:, None], rows, axis=1)
        e = ising_energies(x, model.j_matrix, h)
        assert e.shape == (rows,)
        np.testing.assert_array_equal(e, e[0])

    @pytest.mark.parametrize("h_columns", ["full", "one"])
    def test_lone_column_scores_as_in_a_stack(self, h_columns):
        # numpy scores an (m, 1) stack by gemv and contiguous reductions; a
        # one-replica solve must still score its state as a batch scores it.
        rng = np.random.default_rng(2005)
        for _ in range(60):
            m = int(rng.integers(6, 65))
            a = rng.standard_normal((m, m))
            j = a + a.T
            x = rng.choice([-1.0, 1.0], (m, 5))
            h = rng.standard_normal((m, 5 if h_columns == "full" else 1))
            stack = ising_energies(x, j, h)
            for c in range(5):
                lone = ising_energies(x[:, c : c + 1], j, h[:, c : c + 1] if h.shape[1] > 1 else h)
                assert lone.shape == (1,)
                assert lone[0] == stack[c]


class TestCrossEncodingConsistency:
    @pytest.mark.parametrize("order,n", [(4, 5), (16, 3), (64, 2)])
    def test_both_encodings_equal_the_residual(self, order, n):
        c, inst = random_instance(n, order, seed=order + n)
        bm = build_binary_model(realify(inst.channel, inst.rx_vector, order))
        pm = build_pdit_model(realify(inst.channel, inst.rx_vector, order))
        rng = np.random.default_rng(1)
        y_norm = np.linalg.norm(inst.rx_vector) ** 2
        for _ in range(50):
            x = rng.choice(c.alphabet, n)
            s = symbols_to_spins(x, order)
            d = np.concatenate([x.real, x.imag])
            binary_side = energy(s, bm) + bm.offset
            pdit_side = energy(d, pm) + y_norm
            resid = np.linalg.norm(inst.rx_vector - inst.channel @ x) ** 2
            assert binary_side == pytest.approx(resid, rel=1e-9)
            assert pdit_side == pytest.approx(resid, rel=1e-9)
