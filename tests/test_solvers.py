"""Solver kernels: update-rule statistics, annealing, replication contracts."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from isingmimo import (
    AnnealSchedule,
    BinaryIsingModel,
    OimParams,
    SolverConfig,
    build_constellation,
    build_instance,
    build_pdit_model,
    default_parameters,
    ml_exhaustive,
    realify,
)
from isingmimo import solvers
from isingmimo.ising_map import ising_energies
from isingmimo.solvers import (
    _bpim_sweeps,
    _dpim_sweeps,
    _oim_sweeps,
    _spawn_rngs,
    bpim_solve_many,
    dpim_solve_many,
    oim_params,
    oim_solve_many,
)


def energy(x: np.ndarray, model) -> float:
    """The model's energy -1/2 x'Jx - h'x of one state."""
    return ising_energies(x[None], model.j_matrix, model.h_vector[None])[0]


def sample_spin_chain(model, beta, n_sweeps, seed, n_chains=1):
    """Post-sweep states of p-bit chains at fixed beta: (chains, sweeps, n) of +-1."""
    h_rows = np.broadcast_to(model.h_vector, (n_chains, model.n))
    sweeps = _bpim_sweeps(
        model.j_matrix, h_rows, np.full(n_sweeps, beta), _spawn_rngs(seed, n_chains)
    )
    return np.stack([s.astype(np.int8) for s in sweeps], axis=1)


def sample_pdit_chain(model, beta, n_sweeps, seed, n_chains=1):
    """Post-sweep states of p-dit chains at fixed beta: (chains, sweeps, 2N)
    levels, [Re x; Im x] in each state."""
    h_rows = np.broadcast_to(model.h_vector, (n_chains, 2 * model.n))
    sweeps = _dpim_sweeps(model, h_rows, np.full(n_sweeps, beta), _spawn_rngs(seed, n_chains))
    return np.stack([d.astype(np.int8) for d in sweeps], axis=1)


def ferromagnet(coupling=1.0):
    j = np.array([[0.0, coupling], [coupling, 0.0]])
    return BinaryIsingModel(j, np.zeros(2), 0.0, 2)


class TestAnnealSchedule:
    def test_beta_ramp_boundaries(self):
        sched = AnnealSchedule(0.8, 100)
        vals = sched.peak * sched.ramp()
        assert vals[0] == pytest.approx(0.008)
        assert vals[-1] == pytest.approx(0.8)
        assert (np.diff(vals) > 0).all()

    def test_temperature_ramp_reaches_zero(self, monkeypatch):
        # The noise levels the oscillator solver hands its kernel.
        seen = []

        def recording(j, h_rows, temps, params, rngs):
            seen.append(temps)
            return _oim_sweeps(j, h_rows, temps, params, rngs)

        monkeypatch.setattr(solvers, "_oim_sweeps", recording)
        oim_solve_many([ferromagnet()], SolverConfig(1, AnnealSchedule(30.0, 4)), [0])
        (temps,) = seen
        np.testing.assert_allclose(temps, [22.5, 15.0, 7.5, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(0.0, 10)
        with pytest.raises(ValueError):
            AnnealSchedule(1.0, 0)

    @pytest.mark.parametrize("peak", [np.inf, np.nan])
    def test_non_finite_peak_rejected(self, peak):
        with pytest.raises(ValueError, match="finite peak"):
            AnnealSchedule(peak, 10)


class TestDefaultParameters:
    def test_bpsk_bpim_scaling(self):
        cfg = default_parameters("bpim", 64, 2)
        assert cfg.schedule.peak == pytest.approx(np.sqrt(3) / 16)
        assert cfg.replicas == 64 and cfg.schedule.n_iterations == 100

    def test_qam_bpim_scaling(self):
        cfg = default_parameters("bpim", 32, 16)
        assert cfg.schedule.peak == pytest.approx(13 / 128)

    def test_dpim_scaling_is_order_free(self):
        for order in (4, 16, 64, 256):
            cfg = default_parameters("dpim", 32, order)
            assert cfg.schedule.peak == pytest.approx(np.sqrt(2) / 16)

    def test_oim_parameters(self):
        cfg = default_parameters("oim", 64, 2)
        assert cfg.schedule.peak == 30.0
        params = oim_params(64)
        assert params.coupling == pytest.approx(3.5 / 16)
        assert params.binarization == pytest.approx(1.3 / 16)

    def test_oim_rejected_for_qam(self):
        with pytest.raises(ValueError):
            default_parameters("oim", 16, 4)

    def test_unknown_paradigm(self):
        with pytest.raises(ValueError):
            default_parameters("tabu", 16, 2)


class TestPbitKernel:
    def test_zero_beta_is_fair_coin(self):
        # With beta = 0 the update ignores the field entirely.
        model = BinaryIsingModel(np.zeros((4, 4)), np.full(4, 5.0), 0.0, 4)
        chains = sample_spin_chain(model, 0.0, 2500, seed=0, n_chains=10)
        frac_up = (chains > 0).mean()
        # 10^5 draws, sigma = 0.5/sqrt(1e5)
        assert abs(frac_up - 0.5) < 3 * 0.5 / np.sqrt(chains.size)

    def test_large_beta_saturates(self):
        model = BinaryIsingModel(np.zeros((2, 2)), np.array([3.0, -3.0]), 0.0, 2)
        chains = sample_spin_chain(model, 50.0, 500, seed=1, n_chains=4)
        assert (chains[:, :, 0] == 1).all()
        assert (chains[:, :, 1] == -1).all()

    def test_single_site_detailed_balance(self):
        # P(+1)/P(-1) must equal exp(2 beta I); pin the neighbour spin by a
        # huge bias and measure the conditional of the free spin.
        beta, coupling = 0.7, 0.9
        j = np.array([[0.0, coupling], [coupling, 0.0]])
        model = BinaryIsingModel(j, np.array([0.0, 50.0]), 0.0, 2)
        chains = sample_spin_chain(model, beta, 40000, seed=3, n_chains=5)
        assert (chains[:, :, 1] == 1).all()
        p_up = (chains[:, :, 0] == 1).mean()
        expected = 1.0 / (1.0 + np.exp(-2 * beta * coupling))
        sigma = np.sqrt(expected * (1 - expected) / chains[:, :, 0].size)
        # sequential-scan samples are weakly correlated; allow 5 sigma
        assert abs(p_up - expected) < 5 * max(sigma, 1e-4)

    def test_ferromagnet_ground_state(self):
        model = ferromagnet()
        sched = AnnealSchedule(5.0, 100)
        outcomes = bpim_solve_many([model] * 100, SolverConfig(1, sched), list(range(100)))
        aligned = sum(out.best_state[0] == out.best_state[1] for out in outcomes)
        assert aligned >= 99

    def test_stationary_distribution_small_model(self):
        c = build_constellation(2)
        inst, _ = build_instance(c, 3, 6.0, 17)
        from isingmimo import build_binary_model, realify

        model = build_binary_model(realify(inst.channel, inst.rx_vector, 2))
        beta = 0.15
        states = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        exact = np.exp(-beta * np.array([energy(s, model) for s in states]))
        exact /= exact.sum()
        chains = sample_spin_chain(model, beta, 20000, seed=6, n_chains=25)
        samples = chains[:, 1000:, :].reshape(-1, 3)
        keys = ((samples > 0) * (2 ** np.arange(2, -1, -1))).sum(axis=1)
        emp = np.bincount(keys, minlength=8) / keys.size
        order = ((states > 0) * (2 ** np.arange(2, -1, -1))).sum(axis=1)
        tv = 0.5 * np.abs(emp[order] - exact).sum()
        assert tv < 0.01


class TestPditKernel:
    def test_zero_beta_uniform(self):
        c = build_constellation(4)
        model = build_pdit_model(realify(np.eye(2, dtype=complex), np.ones(2) + 1j, 4))
        chains = sample_pdit_chain(model, 0.0, 3000, seed=2, n_chains=8)
        symbols = chains[..., :2] + 1j * chains[..., 2:]
        counts = np.array([(symbols == p).mean() for p in c.alphabet])
        sigma = np.sqrt(0.25 * 0.75 / symbols.size)
        assert np.abs(counts - 0.25).max() < 4 * sigma

    def test_single_site_conditional_exact(self):
        # One p-dit: the chain must sample the exact Boltzmann distribution.
        rng = np.random.default_rng(4)
        H = np.array([[0.7 - 0.2j]])
        y = np.array([1.1 + 0.4j])
        model = build_pdit_model(realify(H, y, 16))
        beta = 0.3
        levels = model.pam_levels
        cand = np.array([(a, b) for a in levels for b in levels])
        energies = np.array([energy(d, model) for d in cand])
        exact = np.exp(-beta * (energies - energies.min()))
        exact /= exact.sum()
        chains = sample_pdit_chain(model, beta, 40000, seed=5, n_chains=5)
        samples = chains.reshape(-1, 2)
        emp = np.array(
            [((samples[:, 0] == a) & (samples[:, 1] == b)).mean() for a, b in cand]
        )
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.01

    @pytest.mark.parametrize("order", [4, 16])
    def test_stationary_distribution_two_sites(self, order):
        # Two coupled p-dits: the chain must sample the exact joint Boltzmann
        # distribution, which the cross-site field shapes.
        inst, _ = build_instance(build_constellation(order), 2, 6.0, 3)
        model = build_pdit_model(realify(inst.channel, inst.rx_vector, order))
        beta = 0.15
        levels = model.pam_levels
        states = np.array(list(itertools.product(levels, repeat=4)))
        energies = np.array([energy(d, model) for d in states])
        exact = np.exp(-beta * (energies - energies.min()))
        exact /= exact.sum()
        chains = sample_pdit_chain(model, beta, 20000, seed=7, n_chains=25)
        samples = chains[:, 1000:].reshape(-1, 4)
        keys = np.zeros(len(samples), dtype=int)
        for col in range(4):
            keys = keys * levels.size + np.searchsorted(levels, samples[:, col])
        emp = np.bincount(keys, minlength=len(states)) / keys.size
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.01

    def test_finds_exhaustive_argmin(self):
        c = build_constellation(4)
        inst, _ = build_instance(c, 8, 12.0, 55)
        oracle = ml_exhaustive(inst.channel, inst.rx_vector, c)
        model = build_pdit_model(realify(inst.channel, inst.rx_vector, 4))
        cfg = default_parameters("dpim", 8, 4)
        hits = 0
        for out in dpim_solve_many([model] * 100, cfg, list(range(100))):
            symbols = out.best_state[:8] + 1j * out.best_state[8:]
            hits += bool(np.array_equal(symbols, oracle.symbols))
        assert hits >= 95

    def test_energy_bookkeeping(self):
        c = build_constellation(16)
        inst, _ = build_instance(c, 6, 10.0, 77)
        model = build_pdit_model(realify(inst.channel, inst.rx_vector, 16))
        (out,) = dpim_solve_many([model], default_parameters("dpim", 6, 16), [1])
        assert out.best_energy == pytest.approx(
            energy(out.best_state, model), rel=1e-9
        )
        assert out.best_energy <= out.final_energies.min() + 1e-12
        assert out.final_energies.shape == (64,)


class TestOscillatorKernel:
    def test_coupling_vanishes_at_equal_phases(self):
        from isingmimo.solvers import _oim_drift

        model = ferromagnet()
        phi = np.full((1, 2), 0.83)
        drift = _oim_drift(
            np.sin(phi), np.cos(phi), model.j_matrix, np.zeros((1, 2)), OimParams(1.0, 0.0)
        )
        np.testing.assert_allclose(drift, 0.0, atol=1e-12)

    def test_binarization_term_values(self):
        from isingmimo.solvers import _oim_drift

        model = BinaryIsingModel(np.zeros((1, 1)), np.zeros(1), 0.0, 1)
        for phi_val, expected in ((np.pi / 2, 0.0), (np.pi / 4, -1.0)):
            phi = np.array([[phi_val]])
            drift = _oim_drift(
                np.sin(phi), np.cos(phi), model.j_matrix, np.zeros((1, 1)), OimParams(0.0, 1.0)
            )
            assert drift[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_two_oscillator_locking(self):
        # Noiseless relaxation from a small phase split locks in phase and
        # reads out aligned spins.
        model = ferromagnet()
        *_, readout = _oim_sweeps(
            model.j_matrix,
            np.zeros((1, 2)),
            np.zeros(3000),
            OimParams(1.0, 1.0),
            [np.random.default_rng(12)],
        )
        assert readout[0, 0] == readout[0, 1]

    def test_field_pinning(self):
        # Positive bias must pull the readout to +1 (annealed run).
        model = BinaryIsingModel(np.zeros((1, 1)), np.array([2.0]), 0.0, 1)
        sched = AnnealSchedule(2.0, 500)
        *_, readout = _oim_sweeps(
            model.j_matrix,
            np.repeat(model.h_vector[None], 8, axis=0),
            sched.peak * (1.0 - sched.ramp()),
            OimParams(1.0, 0.2),
            _spawn_rngs(3, 8),
        )
        assert (readout[:, 0] == 1.0).all()

    def test_readout_local_minimum_property(self):
        # At zero noise with a binarizing slope the converged readout should
        # be single-flip stable on most random coupling instances.
        rng = np.random.default_rng(123)
        ok = 0
        n_models = 60
        for trial in range(n_models):
            a = rng.standard_normal((8, 8))
            j = (a + a.T) / 2
            np.fill_diagonal(j, 0.0)
            *_, last = _oim_sweeps(
                j,
                np.zeros((1, 8)),
                np.zeros(5000),
                OimParams(coupling=1.0, binarization=0.15),
                [np.random.default_rng(5000 + trial)],
            )
            s = last[0]
            flip_gain = 2 * s * (j @ s)
            ok += bool((flip_gain >= -1e-9).all())
        assert ok >= 0.9 * n_models


def binary_instance(n, ebn0_db, seed):
    from isingmimo import build_binary_model, realify

    inst, _ = build_instance(build_constellation(2), n, ebn0_db, seed)
    return build_binary_model(realify(inst.channel, inst.rx_vector, 2))


def sweep_energies(model, betas, rng):
    """States and energies after every sweep of a one-row p-bit run."""
    h = model.h_vector[None]
    states, energies = [], []
    for s in _bpim_sweeps(model.j_matrix, h, betas, [rng]):
        states.append(s[0].copy())
        energies.append(ising_energies(s, model.j_matrix, h)[0])
    return np.array(states), np.array(energies)


class TestReplication:
    def test_r1_identical_to_kernel_run(self):
        model = ferromagnet()
        sched = AnnealSchedule(2.0, 50)
        (out,) = bpim_solve_many([model], SolverConfig(1, sched), [9])
        betas = sched.peak * sched.ramp()
        states, energies = sweep_energies(model, betas, _spawn_rngs(9, 1)[0])
        best = int(np.argmin(energies))
        np.testing.assert_array_equal(out.best_state, states[best])
        assert out.best_energy == energies[best]
        assert out.best_iteration == best + 1
        np.testing.assert_array_equal(out.final_energies, energies[-1:])

    def test_best_energy_monotone_in_replicas(self):
        model = binary_instance(10, 3.0, 8)
        sched = AnnealSchedule(0.2, 30)
        energies = [
            bpim_solve_many([model], SolverConfig(r, sched), [13])[0].best_energy
            for r in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_parallel_serial_bit_identical(self, monkeypatch):
        # All models in one kernel call (rows in parallel) against one call
        # per model (chunks in series): outcomes must not depend on how the
        # batch is split or in which order its parts run.
        c = build_constellation(4)
        from isingmimo import build_binary_model, realify

        models = []
        for msg in range(5):
            inst, _ = build_instance(c, 4, 6.0, 21, message_index=msg)
            models.append(build_binary_model(realify(inst.channel, inst.rx_vector, 4)))
        cfg = SolverConfig(6, AnnealSchedule(1.5, 40))
        seeds = [21, 3, 8, 13, 5]
        parallel = bpim_solve_many(models, cfg, seeds)
        monkeypatch.setattr(solvers, "_MAX_PREDRAW", 1)
        serial = bpim_solve_many(models, cfg, seeds)
        for a, b in zip(parallel, serial):
            np.testing.assert_array_equal(a.best_state, b.best_state)
            np.testing.assert_array_equal(a.final_energies, b.final_energies)

    def test_solve_matches_replica_kernels(self):
        # Each row of a batched solve equals that replica's chain run alone.
        model = binary_instance(6, 8.0, 30)
        # A low peak, so replicas end at different energies above their best.
        cfg = SolverConfig(5, AnnealSchedule(0.1, 25))
        (out,) = bpim_solve_many([model], cfg, [77])
        singles = [
            sweep_energies(model, cfg.schedule.peak * cfg.schedule.ramp(), rng)
            for rng in _spawn_rngs(77, cfg.replicas)
        ]
        # Per replica the first lowest-energy sweep, then the first best replica.
        best_it = [int(np.argmin(e)) for _, e in singles]
        best_e = [e[k] for (_, e), k in zip(singles, best_it)]
        best = int(np.argmin(best_e))
        np.testing.assert_array_equal(out.best_state, singles[best][0][best_it[best]])
        np.testing.assert_array_equal(out.final_energies, [e[-1] for _, e in singles])
        assert out.best_energy == best_e[best]
        assert out.best_iteration == best_it[best] + 1

    def test_batched_solve_matches_singles(self):
        c = build_constellation(4)
        from isingmimo import build_binary_model, realify

        cfg = replace(default_parameters("bpim", 5, 4), replicas=10)
        models = []
        for msg in range(6):
            inst, _ = build_instance(c, 5, 8.0, 40, message_index=msg)
            models.append(build_binary_model(realify(inst.channel, inst.rx_vector, 4)))
        seeds = list(range(6))
        batched = bpim_solve_many(models, cfg, seeds)
        for model, seed, out in zip(models, seeds, batched):
            (single,) = bpim_solve_many([model], cfg, [seed])
            np.testing.assert_array_equal(out.best_state, single.best_state)
            assert out.best_energy == single.best_energy
            np.testing.assert_array_equal(out.final_energies, single.final_energies)

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim"])
    def test_batched_requires_shared_coupling(self, paradigm):
        c = build_constellation(4)
        from isingmimo import build_binary_model, realify

        models = []
        for ch in range(2):
            inst, _ = build_instance(c, 3, 8.0, ch)
            if paradigm == "dpim":
                models.append(build_pdit_model(realify(inst.channel, inst.rx_vector, 4)))
            else:
                models.append(build_binary_model(realify(inst.channel, inst.rx_vector, 4)))
        with pytest.raises(ValueError, match="share"):
            solvers.solve_many(paradigm, models, default_parameters(paradigm, 3, 4), [0, 1])

    def test_outcome_energy_consistent(self):
        model = binary_instance(12, 6.0, 19)
        (out,) = bpim_solve_many([model], default_parameters("bpim", 12, 2), [4])
        assert out.best_energy == pytest.approx(
            energy(out.best_state, model), rel=1e-9
        )
        assert out.best_energy <= out.final_energies.min() + 1e-12
        assert 1 <= out.best_iteration <= out.n_iterations


class TestChainSampling:
    def test_spin_chain_shapes_and_values(self):
        model = ferromagnet()
        chains = sample_spin_chain(model, 0.4, 12, seed=0, n_chains=3)
        assert chains.shape == (3, 12, 2)
        assert set(np.unique(chains)) <= {-1, 1}

    def test_pdit_chain_shapes_and_values(self):
        model = build_pdit_model(realify(np.eye(2, dtype=complex), np.ones(2) + 0j, 16))
        chains = sample_pdit_chain(model, 0.2, 9, seed=0, n_chains=2)
        assert chains.shape == (2, 9, 4)
        assert set(np.unique(chains)) <= {-3, -1, 1, 3}
