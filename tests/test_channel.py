"""Channel generation, noise statistics, realification, and seeding."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingmimo import (
    build_constellation,
    build_instance,
    channel_instances,
    complex_symbols,
    derive_rng,
    derive_seed,
    generate_channel,
    modulate_bits,
    noise_sigma_sq,
    realify,
    transmit,
)


class TestGenerateChannel:
    def test_deterministic_given_seed(self):
        a = generate_channel(8, 8, derive_seed(5, 0, 0))
        b = generate_channel(8, 8, derive_seed(5, 0, 0))
        np.testing.assert_array_equal(a, b)
        c = generate_channel(8, 8, derive_seed(5, 0, 1))
        assert not np.array_equal(a, c)

    def test_unit_entry_power(self):
        # Pool 10^6 entries; |H_ij|^2 has mean 1 and variance 1, so the
        # sample-mean standard error is 1e-3.
        H = generate_channel(1000, 1000, derive_seed(1, 0, 0))
        power = np.abs(H) ** 2
        assert abs(power.mean() - 1.0) < 3e-3
        # each quadrature carries half the power
        assert abs((H.real**2).mean() - 0.5) < 2e-3

    def test_channel_hardening(self):
        n = 256
        H = generate_channel(n, n, derive_seed(2, 0, 0))
        gram = (H.conj().T @ H) / n
        diag = np.abs(np.diag(gram))
        off = np.abs(gram - np.diag(np.diag(gram)))
        assert diag.min() > 0.6 and diag.max() < 1.4
        assert off.max() < 0.5 * diag.min()
        assert off.mean() < 0.1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            generate_channel(2, 4, 0)  # fewer receivers than transmitters
        with pytest.raises(ValueError):
            generate_channel(0, 0, 0)


class TestNoiseSigmaSq:
    def test_unity_case(self):
        assert noise_sigma_sq(1, build_constellation(2), 0.0) == pytest.approx(1.0)

    def test_paper_formula_value(self):
        # n_tx * Es / (log2(M) * linear Eb/N0) = 32*2/(2*10)
        assert noise_sigma_sq(32, build_constellation(4), 10.0) == pytest.approx(3.2)

    def test_strictly_decreasing_in_ebn0(self):
        qam16 = build_constellation(16)
        vals = [noise_sigma_sq(16, qam16, db) for db in np.linspace(-5, 25, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_noiseless_limit_and_rejects(self):
        qam4 = build_constellation(4)
        assert noise_sigma_sq(4, qam4, np.inf) == 0.0
        with pytest.raises(ValueError):
            noise_sigma_sq(4, qam4, np.nan)
        with pytest.raises(ValueError):
            noise_sigma_sq(4, qam4, -np.inf)

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
    def test_same_float_as_the_formula_of_es_and_order(self, order):
        # The constellation supplies Es and the order; the float operations
        # and their order are those of the formula with both passed apart.
        c = build_constellation(order)
        grid = np.concatenate([np.linspace(-30.0, 60.0, 91), [-7.3, 0.1, 12.345, 3000.0]])
        for n in (1, 3, 16, 64):
            for db in grid.tolist():
                for value in (db, np.float64(db)):
                    expected = n * c.symbol_energy / (np.log2(c.order) * 10.0 ** (value / 10.0))
                    got = noise_sigma_sq(n, c, value)
                    assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize(
        "order, ebn0",
        [(4, 4000.0), (4, -4000.0), (2, -3500.0), (256, 3080.0), (2, -3200.0), (16, 1e300)],
    )
    def test_no_usable_variance_rejected(self, order, ebn0):
        # 4000 dB overflowed Python's float power, -4000 dB divided by zero,
        # and 3080 dB overflowed the product with log2(order); none may warn.
        c = build_constellation(order)
        for value in (ebn0, np.float64(ebn0)):
            with pytest.raises(ValueError, match=re.escape(f"Eb/N0 of {ebn0} dB gives no usable")):
                noise_sigma_sq(4, c, value)


class TestTransmit:
    def test_zero_noise_is_exact(self):
        H = generate_channel(4, 4, 0)
        x = np.array([1, -1, 1, 1], dtype=complex)
        np.testing.assert_array_equal(transmit(H, x, 0.0, 1), H @ x)

    def test_noise_variance(self):
        H = np.zeros((500, 1), dtype=complex)
        x = np.zeros(1, dtype=complex)
        sigma_sq = 3.7
        samples = np.concatenate(
            [transmit(H, x, sigma_sq, derive_seed(9, 3, k)) for k in range(2000)]
        )
        # 10^6 complex samples; per-quadrature variance sigma^2/2.
        total = (samples.real**2 + samples.imag**2).mean()
        assert total == pytest.approx(sigma_sq, rel=0.01)
        assert (samples.real**2).mean() == pytest.approx(sigma_sq / 2, rel=0.01)

    def test_seed_reproducibility(self):
        H = generate_channel(4, 4, 0)
        x = np.array([1, 1, -1, 1], dtype=complex)
        y1 = transmit(H, x, 2.0, derive_seed(4, 2, 0))
        y2 = transmit(H, x, 2.0, derive_seed(4, 2, 0))
        np.testing.assert_array_equal(y1, y2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transmit(np.eye(3, dtype=complex), np.ones(2, dtype=complex), 0.1, 0)


class TestRealify:
    def test_qam_example(self):
        rc = realify(np.array([[1j]]), np.array([1.0 + 0j]), 4)
        np.testing.assert_array_equal(rc.h_real, [[0, -1], [1, 0]])
        np.testing.assert_array_equal(rc.y_real, [1, 0])
        assert rc.constellation.order == 4

    def test_bpsk_example(self):
        rc = realify(np.array([[1 + 1j]]), np.array([2.0 + 0j]), 2)
        np.testing.assert_array_equal(rc.h_real, [[1], [1]])
        np.testing.assert_array_equal(rc.y_real, [2, 0])
        assert rc.constellation.order == 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 16]))
    def test_residual_norm_preserved(self, seed, order):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        H = generate_channel(n, n, rng.integers(2**31))
        c = build_constellation(order)
        x = rng.choice(c.alphabet, n)
        if order == 2:
            x = x.real.astype(complex)
        y = H @ x + (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rc = realify(H, y, order)
        xr = x.real if order == 2 else np.concatenate([x.real, x.imag])
        complex_resid = np.linalg.norm(y - H @ x) ** 2
        real_resid = np.linalg.norm(rc.y_real - rc.h_real @ xr) ** 2
        assert real_resid == pytest.approx(complex_resid, rel=1e-12)
        np.testing.assert_array_equal(complex_symbols(xr, n), x)

    @pytest.mark.parametrize("order", [2, 4, 16])
    def test_block_layout_and_with_received(self, order):
        H = generate_channel(5, 3, 71)
        rng = np.random.default_rng(72)
        y, y2 = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        rc = realify(H, y, order)
        if order == 2:
            expected = np.concatenate([H.real, H.imag])
        else:
            expected = np.block([[H.real, -H.imag], [H.imag, H.real]])
        assert rc.h_real.shape == expected.shape
        assert rc.h_real.tobytes() == expected.tobytes()
        other = rc.with_received(y2)
        assert other.h_real is rc.h_real and other.constellation.order == order
        np.testing.assert_array_equal(other.y_real, realify(H, y2, order).y_real)

    def test_one_constellation_per_call_shared_by_with_received(self, monkeypatch):
        calls = []

        def spy(order):
            calls.append(order)
            return build_constellation(order)

        monkeypatch.setattr("isingmimo.channel.build_constellation", spy)
        H = generate_channel(3, 3, 73)
        rc = realify(H, np.ones(3, dtype=complex), 16)
        assert calls == [16]
        assert rc.with_received(np.zeros(3, dtype=complex)).constellation is rc.constellation
        assert calls == [16]

    def test_complex_symbols_reads_the_length(self):
        np.testing.assert_array_equal(complex_symbols([1.0, -1.0], 2), [1, -1])
        np.testing.assert_array_equal(complex_symbols([1.0, -1.0], 1), [1 - 1j])
        with pytest.raises(ValueError):
            complex_symbols(np.ones(3), 2)


class TestSeedDerivation:
    def test_disjoint_keys_give_distinct_streams(self):
        a = derive_rng(7, 1, 2, 3).random(4)
        b = derive_rng(7, 1, 2, 4).random(4)
        c = derive_rng(7, 1, 2, 3).random(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, c)


class TestInstanceIO:
    def test_build_instance_reproducible(self):
        c = build_constellation(4)
        inst1, bits1 = build_instance(c, 4, 9.0, 123, channel_index=2, message_index=5)
        inst2, bits2 = build_instance(c, 4, 9.0, 123, channel_index=2, message_index=5)
        np.testing.assert_array_equal(inst1.channel, inst2.channel)
        np.testing.assert_array_equal(inst1.rx_vector, inst2.rx_vector)
        np.testing.assert_array_equal(bits1, bits2)
        assert inst1.sigma_sq == noise_sigma_sq(4, c, 9.0)

    def test_tx_symbols_match_bits(self):
        c = build_constellation(16)
        inst, bits = build_instance(c, 8, 12.0, 77)
        np.testing.assert_array_equal(inst.tx_symbols, modulate_bits(bits, c))


class TestChannelInstances:
    POINTS = (6.0, 12.0, np.inf)

    def cells(self, c, messages=(0, 1, 2), points=None):
        points = enumerate(self.POINTS) if points is None else points
        return channel_instances(c, 3, 97, 4, messages, points)

    def test_message_major_with_indices(self):
        cells = self.cells(build_constellation(4))
        indices = [(i.channel_index, i.message_index, i.ebn0_index) for i, _ in cells]
        assert indices == [(4, msg, e) for msg in range(3) for e in range(3)]
        assert [i.ebn0_db for i, _ in cells] == list(self.POINTS) * 3

    def test_cells_share_one_channel_and_each_message_its_bits(self):
        cells = self.cells(build_constellation(16))
        H = cells[0][0].channel
        assert all(inst.channel is H for inst, _ in cells)
        for msg in range(3):
            first, bits = cells[3 * msg]
            for inst, other in cells[3 * msg : 3 * msg + 3]:
                assert other is bits and inst.tx_symbols is first.tx_symbols

    @pytest.mark.parametrize("order", [2, 4, 16])
    def test_each_cell_equals_build_instance(self, order):
        c = build_constellation(order)
        for inst, bits in self.cells(c):
            alone, alone_bits = build_instance(
                c, 3, inst.ebn0_db, 97, 4, inst.message_index, inst.ebn0_index
            )
            for field in ("channel", "tx_symbols", "rx_vector"):
                assert getattr(inst, field).tobytes() == getattr(alone, field).tobytes()
            assert bits.tobytes() == alone_bits.tobytes()
            assert (inst.sigma_sq, inst.ebn0_db) == (alone.sigma_sq, alone.ebn0_db)
            assert (inst.channel_index, inst.message_index, inst.ebn0_index) == (
                alone.channel_index,
                alone.message_index,
                alone.ebn0_index,
            )

    def test_one_shot_iterators_accepted(self):
        c = build_constellation(4)
        listed = self.cells(c, messages=[0, 1, 2], points=list(enumerate(self.POINTS)))
        streamed = self.cells(c, messages=iter(range(3)), points=enumerate(self.POINTS))
        assert len(streamed) == len(listed) == 9
        for (a, a_bits), (b, b_bits) in zip(listed, streamed):
            assert a.rx_vector.tobytes() == b.rx_vector.tobytes()
            assert a_bits.tobytes() == b_bits.tobytes()
            assert (a.message_index, a.ebn0_index) == (b.message_index, b.ebn0_index)
