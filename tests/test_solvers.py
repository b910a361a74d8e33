"""Solver kernels: update-rule statistics, annealing, replication contracts."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isingmimo import (
    AnnealSchedule,
    IsingModel,
    OimParams,
    SolverConfig,
    build_binary_model,
    build_constellation,
    build_instance,
    build_pdit_model,
    channel_instances,
    default_parameters,
    ml_exhaustive,
    realify,
)
from isingmimo import solvers
from isingmimo.ising_map import ising_energies, pdit_couplings
from isingmimo.solvers import (
    _OIM_DT,
    PARADIGMS,
    _dpim_sweeps,
    _level_sweeps,
    _OimDrift,
    _oim_sweeps,
    _pbit_sweeps,
    bpim_solve_many,
    dpim_solve_many,
    oim_params,
    oim_solve_many,
)

# The float the oscillator integrates in, and its machine epsilon.
OIM_FLOAT = solvers._OIM_FLOAT
OIM_EPS = float(np.finfo(OIM_FLOAT).eps)


def energy(x: np.ndarray, model) -> float:
    """The model's energy -1/2 x'Jx - h'x of one state."""
    return ising_energies(x[:, None], model.j_matrix, model.h_vector[:, None])[0]


def stacked(noise):
    """A lazy noise source's per-sweep blocks as one (n_it, sites, rows)
    array; each block is copied before the next overwrites it."""
    return np.stack([block.copy() for block in noise])


def draws(paradigm):
    """The draw of the paradigm's solve: the p-bit and p-dit solvers share
    the level draw."""
    return solvers._oim_draws if paradigm == "oim" else solvers._level_draws


def predrawn(paradigm, model, n_it, seed, rows):
    """The sites-major initial states (sites, rows) and noise, stacked into
    (n_it, sites, rows), that a solve draws for ``rows`` replicas of one
    seed, read-only, so that a kernel that writes its inputs fails."""
    cfg = SolverConfig(rows, AnnealSchedule(1.0, n_it))
    x0, noise = draws(paradigm)(model, [seed], cfg)
    noise = stacked(noise)
    x0.flags.writeable = noise.flags.writeable = False
    return x0, noise


def sample_spin_chain(model, beta, n_sweeps, seed, n_chains=1):
    """Post-sweep states of p-bit chains at fixed beta: (chains, sweeps, n) of +-1."""
    h = np.broadcast_to(model.h_vector[:, None], (model.n, n_chains))
    draws = predrawn("bpim", model, n_sweeps, seed, n_chains)
    sweeps = _pbit_sweeps(model, h, np.full(n_sweeps, beta), *draws)
    return np.stack([s.T.astype(np.int8) for s in sweeps], axis=1)


def sample_pdit_chain(model, beta, n_sweeps, seed, n_chains=1):
    """Post-sweep states of p-dit chains at fixed beta: (chains, sweeps, 2N)
    levels, [Re x; Im x] in each state, from the kernel a ``dpim`` solve
    picks for the model's levels."""
    h = np.broadcast_to(model.h_vector[:, None], (2 * model.n, n_chains))
    draws = predrawn("dpim", model, n_sweeps, seed, n_chains)
    sweeps = _level_sweeps(model, h, np.full(n_sweeps, beta), *draws)
    return np.stack([d.T.astype(np.int8) for d in sweeps], axis=1)


def spin_model(j, h):
    """A binary model with couplings ``j``, biases ``h`` and no offset."""
    return IsingModel(j, h, np.array([-1.0, 1.0]), 0.0, h.size)


def kernel_name(paradigm, order):
    """The kernel a solve of ``paradigm`` at ``order`` runs: ``dpim`` sweeps
    4-QAM with the p-bit kernel and larger orders with the softmax one."""
    if paradigm == "oim":
        return "_oim_sweeps"
    return "_dpim_sweeps" if paradigm == "dpim" and order > 4 else "_pbit_sweeps"


def ferromagnet(coupling=1.0):
    j = np.array([[0.0, coupling], [coupling, 0.0]])
    return spin_model(j, np.zeros(2))


def assert_same_states(got, expected):
    """Equal states after every iteration: ``got`` as C-contiguous (sites,
    rows) arrays, ``expected`` as a reference's (rows, sites) ones."""
    for s, e in itertools.zip_longest(got, expected):
        assert s.shape == e.T.shape and s.flags.c_contiguous
        np.testing.assert_array_equal(s, e.T)


def assert_same_outcomes(got, expected):
    """Equal outcomes, model by model, in every field."""
    for a, b in zip(got, expected, strict=True):
        np.testing.assert_array_equal(a.best_state, b.best_state)
        np.testing.assert_array_equal(a.final_energies, b.final_energies)
        assert (a.best_energy, a.best_iteration) == (b.best_energy, b.best_iteration)
        assert a.n_iterations == b.n_iterations


class TestAnnealSchedule:
    def test_beta_ramp_boundaries(self):
        sched = AnnealSchedule(0.8, 100)
        vals = sched.peak * sched.ramp()
        assert vals[0] == pytest.approx(0.008)
        assert vals[-1] == pytest.approx(0.8)
        assert (np.diff(vals) > 0).all()

    def test_temperature_ramp_reaches_zero(self, monkeypatch):
        # The noise levels the oscillator solver hands its kernel, one
        # (rows,) value per step.
        seen = []

        def recording(model, h, temps, *rest):
            def recorded():
                for temp in temps:
                    seen.append(temp)
                    yield temp

            return _oim_sweeps(model, h, recorded(), *rest)

        monkeypatch.setattr(solvers, "_oim_sweeps", recording)
        oim_solve_many([ferromagnet()], SolverConfig(1, AnnealSchedule(30.0, 4)), [0])
        temps = np.concatenate(seen)
        np.testing.assert_allclose(temps, [22.5, 15.0, 7.5, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(0.0, 10)
        with pytest.raises(ValueError):
            AnnealSchedule(1.0, 0)

    @pytest.mark.parametrize("count", [2.5, True, np.int64(3)])
    def test_counts_must_be_ints(self, count):
        # A float count would ramp past the peak: (1, 2.5) gave [0.4, 0.8, 1.2].
        with pytest.raises(ValueError, match="must be an int"):
            AnnealSchedule(1.0, count)
        with pytest.raises(ValueError, match="must be an int"):
            SolverConfig(count, AnnealSchedule(1.0, 3))

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
        model = spin_model(np.zeros((4, 4)), np.full(4, 5.0))
        chains = sample_spin_chain(model, 0.0, 2500, seed=0, n_chains=10)
        frac_up = (chains > 0).mean()
        # 10^5 draws, sigma = 0.5/sqrt(1e5)
        assert abs(frac_up - 0.5) < 3 * 0.5 / np.sqrt(chains.size)

    def test_large_beta_saturates(self):
        model = spin_model(np.zeros((2, 2)), np.array([3.0, -3.0]))
        chains = sample_spin_chain(model, 50.0, 500, seed=1, n_chains=4)
        assert (chains[:, :, 0] == 1).all()
        assert (chains[:, :, 1] == -1).all()

    def test_single_site_detailed_balance(self):
        # P(+1)/P(-1) must equal exp(2 beta I); pin the neighbour spin by a
        # huge bias and measure the conditional of the free spin.
        beta, coupling = 0.7, 0.9
        j = np.array([[0.0, coupling], [coupling, 0.0]])
        model = spin_model(j, np.array([0.0, 50.0]))
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
        (model,) = channel_models("binary", 2, 3, 1, 17, ebn0_db=6.0)
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

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_single_site_conditional_exact(self, order):
        # One p-dit: the chain must sample the exact Boltzmann distribution
        # over all M symbols, which the per-axis draws factorize.
        H = np.array([[0.7 - 0.2j]])
        y = np.array([1.1 + 0.4j])
        model = build_pdit_model(realify(H, y, order))
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
        (model,) = channel_models("pdit", order, 2, 1, 3, ebn0_db=6.0)
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

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_greedy_trajectory_matches_joint_grid(self, order, n):
        # At beta = 1e6 every draw is the argmax of the site's conditional,
        # so the per-axis kernel a solve picks (the p-bit kernel at 4-QAM)
        # and the joint-grid reference must take the same states after
        # every sweep, whatever their uniforms.
        (model,) = channel_models("pdit", order, n, 1, 60 + n, ebn0_db=10.0)
        h = np.repeat(model.h_vector[:, None], 6, axis=1)
        betas = np.full(5, 1e6)
        draws = predrawn("dpim", model, 5, 9, 6)
        per_axis = _level_sweeps(model, h, betas, *draws)
        joint = joint_grid_sweeps(model, h.T, betas, *draws)
        assert_same_states(per_axis, joint)

    @pytest.mark.parametrize("peak_scale", [0.1, 1.0, 100.0])
    @pytest.mark.parametrize("ebn0_db", [0.0, 12.0, np.inf])
    @pytest.mark.parametrize("n", [2, 8, 16, 32])
    def test_two_level_pbit_sweeps_match_softmax(self, n, ebn0_db, peak_scale):
        # A two-level axis is a p-bit: on the same draws, the p-bit kernel
        # and the softmax kernel, its reference at two levels, take the same
        # states after every sweep. They could differ only where a uniform
        # lies within rounding of its threshold.
        models = channel_models("pdit", 4, n, 2, 50 + n, ebn0_db=ebn0_db)
        h, rows = kernel_rows(models, "batch")
        sched = default_parameters("dpim", n, 4).schedule
        betas = peak_scale * sched.peak * sched.ramp()
        draws = predrawn("dpim", models[0], betas.size, n, rows)
        pbit = _pbit_sweeps(models[0], h, betas, *draws)
        softmax = _dpim_sweeps(models[0], h, betas, *draws)
        for p, d in itertools.zip_longest(pbit, softmax):
            np.testing.assert_array_equal(p, d)

    def test_energy_bookkeeping(self):
        (model,) = channel_models("pdit", 16, 6, 1, 77, ebn0_db=10.0)
        (out,) = dpim_solve_many([model], default_parameters("dpim", 6, 16), [1])
        assert out.best_energy == pytest.approx(
            energy(out.best_state, model), rel=1e-9
        )
        assert out.best_energy <= out.final_energies.min() + 1e-12
        assert out.final_energies.shape == (64,)


def joint_grid_sweeps(model, h_rows, betas, d0, u):
    """p-dit sweeps that draw each site among all M symbols at once, from
    one softmax over the flat sqrt(M) x sqrt(M) candidate grid, with the
    site's Re-axis uniform: the reference the per-axis kernel must
    reproduce."""
    n = model.n
    j = model.j_matrix
    levels = model.pam_levels
    n_lev = levels.size
    l1g = np.repeat(levels, n_lev)
    l2g = np.tile(levels, n_lev)
    d = d0.T.copy()
    field_cols = np.stack([j[:n], j[n:]], axis=-1)
    for k, beta in enumerate(betas):
        for i in range(n):
            f = d @ field_cols[i]
            f1 = f[:, 0] + h_rows[:, i]
            f2 = f[:, 1] + h_rows[:, n + i]
            g = j[i, i]
            t1 = d[:, i] - l1g[:, None]
            t2 = d[:, n + i] - l2g[:, None]
            w = -beta * (t1 * f1 + t2 * f2 - 0.5 * g * (t1 * t1 + t2 * t2))
            w -= w.max(axis=0)
            cdf = np.cumsum(np.exp(w), axis=0)
            pick = (cdf < u[k, i] * cdf[-1]).sum(axis=0)
            d[:, i] = l1g[pick]
            d[:, n + i] = l2g[pick]
        yield d


def rowmajor_bpim_sweeps(j, h_rows, betas, s0, u):
    """p-bit sweeps on a (rows, n) state that read J's column per site: the
    reference the sites-major kernel must reproduce."""
    s = s0.T.copy()
    # What rng.uniform(-1, 1) draws from the same uniforms.
    v = -1.0 + 2.0 * u
    for k, beta in enumerate(betas):
        for i in range(j.shape[0]):
            local = s @ j[:, i] + h_rows[:, i]
            s[:, i] = np.where(v[k, i] + np.tanh(beta * local) >= 0, 1.0, -1.0)
        yield s


def rowmajor_dpim_sweeps(model, h_rows, betas, d0, u):
    """Per-axis p-dit sweeps on a (rows, 2N) state with ``np.cumsum`` CDFs:
    the reference the sites-major kernel must reproduce."""
    n, rows = model.n, d0.shape[1]
    j = model.j_matrix
    levels = model.pam_levels
    d = d0.T.copy()
    axes, h_axes = d.reshape(rows, 2, n), h_rows.reshape(rows, 2, n)
    u_axes = u.reshape(len(u), 2, n, rows)
    field_cols = np.stack([j[:n], j[n:]], axis=-1)
    t, w = np.empty((2, levels.size, rows, 2))
    for k, beta in enumerate(betas):
        # A per-row beta (rows,) broadcasts over the (rows, 2) axes.
        beta = np.asarray(beta)[..., None]
        for i in range(n):
            x = axes[:, :, i]
            f = d @ field_cols[i] + h_axes[:, :, i]
            np.subtract(x, levels[:, None, None], out=t)
            np.multiply(t, 0.5 * beta * j[i, i], out=w)
            w -= beta * f
            w *= t
            w -= w.max(axis=0)
            np.exp(w, out=w)
            np.cumsum(w, axis=0, out=w)
            x[...] = levels[(w < u_axes[k, :, i].T * w[-1]).sum(axis=0)]
        yield d


def channel_models(model_kind, order, n, count, seed, ebn0_db=8.0):
    """``count`` models of one channel, one per message; they share equal couplings."""
    build = build_pdit_model if model_kind == "pdit" else build_binary_model
    c = build_constellation(order)
    cells = channel_instances(c, n, seed, 0, range(count), [(0, ebn0_db)])
    return [build(realify(inst.channel, inst.rx_vector, order)) for inst, _ in cells]


def kernel_rows(models, layout, replicas=4):
    """The (sites, rows) bias and row count of one kernel call in a given row
    layout: one row, one model broadcast to several rows (as the chain
    samplers pass it), or a batch of models with their replicas."""
    h = models[0].h_vector[:, None]
    if layout == "one":
        return h, 1
    if layout == "broadcast":
        return np.broadcast_to(h, (h.size, replicas)), replicas
    stacked = np.stack([m.h_vector for m in models], axis=1)
    return np.repeat(stacked, replicas, axis=1), len(models) * replicas


def ramped_kernel(name, model, h, ramp):
    """The named kernel on ``model`` with the bias ``h`` and a schedule
    from ``ramp``, as a function of its draws (x0, noise)."""
    schedule = 30.0 * ramp[::-1] if name == "_oim_sweeps" else ramp
    kernel = getattr(solvers, name)
    return lambda x0, noise: kernel(model, h, schedule, x0, noise)


# Each solver's kernel on a 4-QAM model of its own kind, and the p-bit
# kernel on a 4-QAM p-dit model ("pbit-pdit"). dpim runs the p-bit kernel
# there; the softmax kernel stays callable at two levels as its reference.
KERNEL_CASES = pytest.mark.parametrize(
    "paradigm, name",
    [
        ("bpim", "_pbit_sweeps"),
        ("dpim", "_dpim_sweeps"),
        ("oim", "_oim_sweeps"),
        ("dpim", "_pbit_sweeps"),
    ],
    ids=["bpim", "dpim", "oim", "pbit-pdit"],
)


class TestSitesMajorKernels:
    """The sites-major kernels against their row-major references: the same
    states after every sweep, at the default ramp and at a hot one."""

    @pytest.mark.parametrize("layout", ["one", "broadcast", "batch"])
    @pytest.mark.parametrize("hot", [False, True])
    @pytest.mark.parametrize("order", [2, 4, 16, 256])
    def test_bpim_states_match_rowmajor(self, order, hot, layout):
        n = 6
        models = channel_models("binary", order, n, 3, 80 + order)
        h, rows = kernel_rows(models, layout)
        sched = default_parameters("bpim", n, order).schedule
        betas = (0.05 if hot else 1.0) * sched.peak * sched.ramp()[:30]
        j = models[0].j_matrix
        draws = predrawn("bpim", models[0], len(betas), 5, rows)
        sites = _pbit_sweeps(models[0], h, betas, *draws)
        assert_same_states(sites, rowmajor_bpim_sweeps(j, h.T, betas, *draws))

    @pytest.mark.parametrize("layout", ["one", "broadcast", "batch"])
    @pytest.mark.parametrize("hot", [False, True])
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_dpim_states_match_rowmajor(self, order, hot, layout):
        n = 6
        models = channel_models("pdit", order, n, 3, 90 + order)
        h, rows = kernel_rows(models, layout)
        sched = default_parameters("dpim", n, order).schedule
        betas = (0.05 if hot else 1.0) * sched.peak * sched.ramp()[:30]
        draws = predrawn("dpim", models[0], len(betas), 6, rows)
        sites = _dpim_sweeps(models[0], h, betas, *draws)
        assert_same_states(sites, rowmajor_dpim_sweeps(models[0], h.T, betas, *draws))

    @pytest.mark.parametrize(
        "paradigm, kind, order",
        [("bpim", "binary", 2), ("bpim", "binary", 16), ("dpim", "pdit", 16), ("dpim", "pdit", 256)],
    )
    def test_outcomes_match_rowmajor(self, paradigm, kind, order, monkeypatch):
        n = 8
        models = channel_models(kind, order, n, 3, 70 + order)
        cfg = replace(default_parameters(paradigm, n, order), replicas=16)
        sites = solvers.solve_many(paradigm, models, cfg, [11, 12, 13])
        reference = {"bpim": rowmajor_bpim_sweeps, "dpim": rowmajor_dpim_sweeps}[paradigm]

        def sites_major(first, h, betas, x0, noise):
            # The reference's (rows, sites) states, from the solve's noise
            # stacked into one array, handed over C-contiguous and
            # sites-major, as the kernels yield theirs.
            first = first.j_matrix if paradigm == "bpim" else first
            for s in reference(first, h.T, betas, x0, stacked(noise)):
                yield np.ascontiguousarray(s.T)

        monkeypatch.setattr(solvers, kernel_name(paradigm, order), sites_major)
        assert_same_outcomes(sites, solvers.solve_many(paradigm, models, cfg, [11, 12, 13]))

    @KERNEL_CASES
    def test_kernels_leave_inputs_unwritten(self, paradigm, name):
        # A kernel and its reference share their arrays, so neither may write
        # them: predrawn's arrays and the couplings are read-only, and a
        # rerun must repeat. The p-bit kernel zeroes a p-dit's own couplings
        # in a copy, never in the model's J.
        (model,) = channel_models(PARADIGMS[paradigm].model, 4, 3, 1, 8)
        j = model.j_matrix.copy()
        model.j_matrix.flags.writeable = False
        h = np.repeat(model.h_vector[:, None], 3, axis=1)
        ramp = np.linspace(0.1, 1.0, 10)
        x0, noise = predrawn(paradigm, model, ramp.size, 4, 3)
        assert not (x0.flags.writeable or noise.flags.writeable)
        kernel = ramped_kernel(name, model, h, ramp)
        first, again = ([s.copy() for s in kernel(x0, noise)] for _ in range(2))
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(model.j_matrix, j)

    @pytest.mark.parametrize("extra", [-1, 1])
    @KERNEL_CASES
    def test_noise_must_last_the_schedule(self, paradigm, name, extra):
        # A kernel sweeps once per schedule step, one noise block each: a
        # source one block short, or one block long, fails loudly instead of
        # running fewer sweeps.
        (model,) = channel_models(PARADIGMS[paradigm].model, 4, 3, 1, 8)
        h = np.repeat(model.h_vector[:, None], 3, axis=1)
        ramp = np.linspace(0.1, 1.0, 6)
        x0, noise = predrawn(paradigm, model, ramp.size + extra, 4, 3)
        with pytest.raises(ValueError, match="zip"):
            for _ in ramped_kernel(name, model, h, ramp)(x0, noise):
                pass


class TestOscillatorKernel:
    def test_coupling_vanishes_at_equal_phases(self):
        model = ferromagnet()
        phi = np.full((2, 1), 0.83)
        bands = _OimDrift(model.j_matrix, np.zeros((2, 1)), OimParams(1.0, 0.0))
        drift = bands(np.sin(phi), np.cos(phi), np.empty(phi.shape))
        np.testing.assert_allclose(drift, 0.0, atol=1e-12)

    def test_binarization_term_values(self):
        # The phase, its sine and its cosine in the kernel's float, each
        # within one rounding and one ulp, and the product and its gain
        # rounded once each: -sin(2 phi) to within 4 eps.
        model = spin_model(np.zeros((1, 1)), np.zeros(1))
        bands = _OimDrift(model.j_matrix, np.zeros((1, 1)), OimParams(0.0, 1.0))
        for phi_val, expected in ((np.pi / 2, 0.0), (np.pi / 4, -1.0)):
            phi = np.array([[phi_val]], dtype=OIM_FLOAT)
            drift = bands(np.sin(phi), np.cos(phi), np.empty(phi.shape, dtype=OIM_FLOAT))
            assert drift[0, 0] == pytest.approx(expected, abs=4 * OIM_EPS)

    def test_readout_is_float64_spins(self):
        # The kernel integrates in float32 but yields a float64 +-1
        # readout, the state kind that every solver's scoring takes.
        assert OIM_FLOAT is np.float32
        (model,) = channel_models("binary", 2, 6, 1, 9)
        h = np.repeat(model.h_vector[:, None], 4, axis=1)
        draws = predrawn("oim", model, 10, 2, 4)
        for s in _oim_sweeps(model, h, np.linspace(30.0, 0.0, 10), *draws):
            assert s.dtype == np.float64 and s.shape == (6, 4) and s.flags.c_contiguous
            assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_kicks_are_scaled_standard_normals(self):
        # 105,000 kicks of one seeded model at a constant noise level,
        # divided by temp sqrt(dt), against N(0, 1): the mean within about
        # six standard errors (1 / sqrt(N)), the variance within about seven
        # (sqrt(2 / N)), and the Kolmogorov-Smirnov distance within twice its
        # 1% critical value, 1.63 / sqrt(N). Fifteen spins give each step's
        # uniforms their padding row.
        (model,) = channel_models("binary", 2, 15, 1, 19)
        n_steps, temp = 70, 30.0
        cfg = SolverConfig(100, AnnealSchedule(temp, n_steps))
        phi0, noise = solvers._oim_draws(model, [4], cfg)
        kicks = np.stack(
            [k.copy() for k in solvers._oim_kicks(np.full(n_steps, temp), noise, phi0.shape)]
        )
        assert kicks.dtype == OIM_FLOAT and kicks.shape == (n_steps, 15, 100)
        z = np.sort(kicks.ravel() / (temp * np.sqrt(_OIM_DT)))
        size = z.size
        assert np.isfinite(z).all() and size >= 100_000
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / np.sqrt(2.0)))
        ranks = np.arange(1, size + 1) / size
        distance = max((ranks - cdf).max(), (cdf - ranks + 1.0 / size).max())
        assert distance < 3.3 / np.sqrt(size)

    def test_two_oscillator_locking(self, monkeypatch):
        # Noiseless relaxation from a small phase split locks in phase and
        # reads out aligned spins.
        model = ferromagnet()
        monkeypatch.setattr(solvers, "oim_params", lambda n: OimParams(1.0, 1.0))
        *_, readout = _oim_sweeps(
            model,
            np.zeros((2, 1)),
            np.zeros(3000),
            np.random.default_rng(12).uniform(0.0, 2.0 * np.pi, (2, 1)),
            np.zeros((3000, 2, 1)),
        )
        assert readout[0, 0] == readout[1, 0]

    def test_field_pinning(self, monkeypatch):
        # Positive bias must pull the readout to +1 (annealed run).
        model = spin_model(np.zeros((1, 1)), np.array([2.0]))
        sched = AnnealSchedule(2.0, 500)
        monkeypatch.setattr(solvers, "oim_params", lambda n: OimParams(1.0, 0.2))
        *_, readout = _oim_sweeps(
            model,
            np.repeat(model.h_vector[:, None], 8, axis=1),
            sched.peak * (1.0 - sched.ramp()),
            *predrawn("oim", model, 500, 3, 8),
        )
        assert (readout[0] == 1.0).all()

    def test_readout_local_minimum_property(self, monkeypatch):
        # At zero noise with a binarizing slope the converged readout should
        # be single-flip stable on most random coupling instances.
        rng = np.random.default_rng(123)
        params = OimParams(coupling=1.0, binarization=0.15)
        monkeypatch.setattr(solvers, "oim_params", lambda n: params)
        ok = 0
        n_models = 60
        for trial in range(n_models):
            a = rng.standard_normal((8, 8))
            j = (a + a.T) / 2
            np.fill_diagonal(j, 0.0)
            *_, last = _oim_sweeps(
                spin_model(j, np.zeros(8)),
                np.zeros((8, 1)),
                np.zeros(5000),
                np.random.default_rng(5000 + trial).uniform(0.0, 2.0 * np.pi, (8, 1)),
                np.zeros((5000, 8, 1)),
            )
            s = last[:, 0]
            flip_gain = 2 * s * (j @ s)
            ok += bool((flip_gain >= -1e-9).all())
        assert ok >= 0.9 * n_models


def full_matrix_drift(sin_phi, cos_phi, j, h_rows, params):
    """The oscillator drift over every ordered site pair, rows-major: the
    reference the band drift must reproduce."""
    # sin(phi_i - phi_j) factorized through the per-row sin/cos vectors.
    pair = sin_phi[:, :, None] * cos_phi[:, None, :] - cos_phi[:, :, None] * sin_phi[:, None, :]
    coupling = np.einsum("ij,rij->ri", j, np.tanh(10.0 * pair))
    coupling += h_rows * sin_phi
    binarize = 2.0 * sin_phi * cos_phi
    return -params.coupling * coupling - params.binarization * binarize


def box_muller(u, n):
    """The n standard normals of each column of the (n + n % 2, rows)
    uniforms ``u``, in float64: radii sqrt(-2 ln(1 - u)) from the first
    ceil(n / 2) rows and angles 2 pi u from the rest, cosines first."""
    half = (n + 1) // 2
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:half]))
    angle = 2.0 * np.pi * u[half:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def full_matrix_sweeps(j, h_rows, temps, params, phi0, noise):
    """The Heun loop of the oscillator kernel on :func:`full_matrix_drift`,
    rows-major, with each step's kick formed from its uniforms in float64."""
    phi = phi0.T.copy()
    for k, temp in enumerate(temps):
        kick = (temp * np.sqrt(_OIM_DT)) * box_muller(noise[k], j.shape[0]).T
        f0 = full_matrix_drift(np.sin(phi), np.cos(phi), j, h_rows, params)
        pred = phi + _OIM_DT * f0 + kick
        f1 = full_matrix_drift(np.sin(pred), np.cos(pred), j, h_rows, params)
        phi += 0.5 * _OIM_DT * (f0 + f1) + kick
        yield np.where(np.cos(phi) >= 0, 1.0, -1.0)


def drift_error_bound(j, h_rows, params):
    """A bound on the error of the kernel's drift, computed in its float
    from sines and cosines in that float, against the float64 full-matrix
    drift of the same sines and cosines: (rows, n), rows-major.

    With eps the float's machine epsilon, each rounding within eps, and
    sines and cosines of size at most 1: sin(phi_i - phi_j), two products
    and a difference, is within 2 eps; ten times it within 30 eps; its tanh,
    of slope at most 1, within 30 eps plus tanh's own few ulps, under 40
    eps. A site's sum of 2 x bands <= n weighted pairs, with the weights
    rounded to the float, adds at most (n + 1) eps times the sum of |J_ij|.
    The bias term, the binarization term and the gains add a few roundings
    each, which the remaining 7 eps and the doubled binarization cover."""
    n = j.shape[0]
    off_diagonal = np.abs(j).sum(axis=1) - np.abs(np.diag(j))
    scale = params.coupling * (off_diagonal + np.abs(h_rows)) + 2.0 * params.binarization
    return (n + 48) * OIM_EPS * scale


class TestOscillatorBands:
    @pytest.mark.parametrize("chunk_rows", [None, 1, 3])
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 16, 17, 64])
    def test_drift_matches_full_matrix(self, n, rows, chunk_rows, monkeypatch):
        # n = 1 has no band and n = 2 one half-zeroed band. J's diagonal is
        # not zero, and must not enter. Three-row chunks of seven rows end
        # in a one-row chunk.
        if chunk_rows is not None:
            monkeypatch.setattr(solvers, "_OIM_BAND_BYTES", band_bytes(n, chunk_rows))
        rng = np.random.default_rng(100 * n + rows)
        a = rng.standard_normal((n, n))
        j = a + a.T
        h_rows = rng.standard_normal((rows, n))
        phi = rng.uniform(0.0, 2.0 * np.pi, (rows, n)).astype(OIM_FLOAT)
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        params = OimParams(0.7, 0.3)
        expected = full_matrix_drift(
            sin_phi.astype(float), cos_phi.astype(float), j, h_rows, params
        )
        bands = _OimDrift(j, np.ascontiguousarray(h_rows.T), params)
        assert len(bands.chunks) == -(-rows // (chunk_rows or rows))
        drift = bands(sin_phi.T.copy(), cos_phi.T.copy(), np.empty((n, rows), dtype=OIM_FLOAT))
        assert drift.dtype == OIM_FLOAT
        assert (np.abs(drift.T - expected) <= drift_error_bound(j, h_rows, params)).all()

    def test_band_budget_counts_every_buffer(self, monkeypatch):
        # A full chunk's buffers, all in the kernel's float, fill the byte
        # budget and no more; the last chunk holds the rows left over.
        n, rows = 16, 50
        monkeypatch.setattr(solvers, "_OIM_BAND_BYTES", band_bytes(n, 7) + band_bytes(n, 1) - 1)
        model, *_ = channel_models("binary", 2, n, 1, 43)
        bands = _OimDrift(model.j_matrix, np.zeros((n, rows)), oim_params(n))
        assert [c[0].stop - c[0].start for c in bands.chunks] == [7] * 7 + [1]
        for _, h, buffers in bands.chunks:
            sin2, cos2, _, _, pairs, *_, product, term = buffers
            width = h.shape[1]
            owned = (sin2, cos2, pairs, product, term)
            assert all(b.dtype == OIM_FLOAT for b in (h, *buffers))
            assert sum(b.nbytes for b in owned) == band_bytes(n, width) <= solvers._OIM_BAND_BYTES
        # Each site's weights are one contiguous row of the band product.
        assert bands.weights.dtype == OIM_FLOAT and bands.weights.flags.c_contiguous

    def test_readouts_match_full_matrix_sweeps(self):
        # The kernel's float32 phases part from the float64 reference's by
        # their rounding, which the noisy dynamics amplify: by up to about
        # 0.02 rad over this seeded n = 16 run. A readout may differ for a
        # step where the reference phase lies that close to a readout
        # boundary, which happens once in its 160,000 readouts; ten are
        # allowed. Every final readout must be equal.
        (model,) = channel_models("binary", 2, 16, 1, 41, ebn0_db=6.0)
        h = np.repeat(model.h_vector[:, None], 100, axis=1)
        sched = AnnealSchedule(30.0, 100)
        temps = sched.peak * (1.0 - sched.ramp())
        params = oim_params(16)
        draws = predrawn("oim", model, 100, 6, 100)
        bands = [s.copy() for s in _oim_sweeps(model, h, temps, *draws)]
        full = [s.T for s in full_matrix_sweeps(model.j_matrix, h.T, temps, params, *draws)]
        assert len(bands) == len(full) == 100
        np.testing.assert_array_equal(bands[-1], full[-1])
        assert np.count_nonzero(np.not_equal(bands, full)) <= 10

    def test_one_row_chunks_bit_identical(self, monkeypatch):
        (model,) = channel_models("binary", 2, 16, 1, 42, ebn0_db=6.0)
        h = np.repeat(model.h_vector[:, None], 12, axis=1)
        temps = np.linspace(30.0, 0.0, 40)
        draws = predrawn("oim", model, 40, 8, 12)
        cfg = SolverConfig(6, AnnealSchedule(30.0, 40))

        def run():
            sweeps = _oim_sweeps(model, h, temps, *draws)
            return [s.copy() for s in sweeps], oim_solve_many([model, model], cfg, [3, 4])

        whole_readouts, whole = run()
        monkeypatch.setattr(solvers, "_OIM_BAND_BYTES", 1)
        chunked_readouts, chunked = run()
        np.testing.assert_array_equal(whole_readouts, chunked_readouts)
        assert_same_outcomes(whole, chunked)


def band_bytes(n, rows):
    """The bytes of the oscillator band buffers of ``rows`` rows of n sites,
    in the kernel's float: 4n doubled sines and cosines, 2n x n // 2 band
    pairs, and the n-entry product and term rows."""
    return rows * np.dtype(OIM_FLOAT).itemsize * (6 * n + 2 * n * (n // 2))


def traced_solve_peak(paradigm, models, replicas, n_iterations):
    """The traced memory peak of one solve of ``models`` with seeds 1, 2, ..."""
    cfg = SolverConfig(replicas, AnnealSchedule(0.5, n_iterations))
    tracemalloc.start()
    try:
        solvers.solve_many(paradigm, models, cfg, list(range(1, len(models) + 1)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sweep_energies(model, betas, s0, u):
    """States and energies after every sweep of a one-row p-bit run."""
    h = model.h_vector[:, None]
    states, energies = [], []
    for s in _pbit_sweeps(model, h, betas, s0, u):
        states.append(s[:, 0].copy())
        energies.append(ising_energies(s, model.j_matrix, h)[0])
    return np.array(states), np.array(energies)


class TestReplication:
    def test_r1_identical_to_kernel_run(self):
        model = ferromagnet()
        sched = AnnealSchedule(2.0, 50)
        (out,) = bpim_solve_many([model], SolverConfig(1, sched), [9])
        betas = sched.peak * sched.ramp()
        states, energies = sweep_energies(model, betas, *predrawn("bpim", model, 50, 9, 1))
        best = int(np.argmin(energies))
        np.testing.assert_array_equal(out.best_state, states[best])
        assert out.best_energy == energies[best]
        assert out.best_iteration == best + 1
        np.testing.assert_array_equal(out.final_energies, energies[-1:])

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim", "oim"])
    def test_parallel_serial_bit_identical(self, paradigm):
        # All models in one kernel call (rows in parallel) against one call
        # per model (in series): outcomes, and so the sites-major scoring,
        # must not depend on how the batch is split or in which order its
        # parts run.
        models = channel_models(PARADIGMS[paradigm].model, 4, 4, 5, 21, ebn0_db=6.0)
        cfg = SolverConfig(6, AnnealSchedule(1.5, 40))
        seeds = [21, 3, 8, 13, 5]
        parallel = solvers.solve_many(paradigm, models, cfg, seeds)
        serial = [solvers.solve_many(paradigm, [m], cfg, [s])[0] for m, s in zip(models, seeds)]
        assert_same_outcomes(parallel, serial)

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim", "oim"])
    def test_batch_checked_once(self, paradigm, monkeypatch):
        # One model per kernel call: the batch's checks still run once per
        # solve.
        order = 2 if paradigm == "oim" else 4
        models = channel_models(PARADIGMS[paradigm].model, order, 4, 4, 23, ebn0_db=6.0)
        cfg = SolverConfig(2, AnnealSchedule(1.5, 5))
        monkeypatch.setattr(solvers, "_MAX_STATE", models[0].h_vector.size * cfg.replicas)
        require_peaks = solvers.require_peaks
        calls = []

        def spy(peaks):
            calls.append(peaks)
            return require_peaks(peaks)

        monkeypatch.setattr(solvers, "require_peaks", spy)
        solvers.solve_many(paradigm, models, cfg, [7, 2, 19, 4], peaks=[1.5, 0.5, 1.0, 2.0])
        assert calls == [[1.5, 0.5, 1.0, 2.0]]

    @pytest.mark.parametrize(
        "paradigm, band_rows, n, replicas",
        [
            ("bpim", None, 4, 10),
            ("dpim", None, 4, 10),
            ("oim", None, 4, 10),
            ("oim", 7, 4, 10),
            ("oim", None, 5, 10),
            ("oim", 7, 5, 10),
            ("oim", None, 3, 1),
        ],
        ids=["bpim-None", "dpim-None", "oim-None", "oim-7", "oim-n5", "oim-7-n5", "oim-n3-r1"],
    )
    def test_batch_equals_its_halves_and_singles(
        self, paradigm, band_rows, n, replicas, monkeypatch
    ):
        # Ten replicas give stacks of 40, 20 and 10 rows, widths at which
        # BLAS products may round a column's last bits apart; no outcome may
        # move. Seven-row oscillator band chunks split those stacks
        # unequally: 7 x 5 + 5, 7 x 2 + 6 and 7 + 3 rows. An odd number of
        # BPSK spins gives the oscillator's noise its padding row, and one
        # replica makes each model one column.
        order = 2 if paradigm == "oim" else 4
        models = channel_models(PARADIGMS[paradigm].model, order, n, 4, 23, ebn0_db=6.0)
        if band_rows is not None:
            monkeypatch.setattr(solvers, "_OIM_BAND_BYTES", band_bytes(models[0].n, band_rows))
        cfg = SolverConfig(replicas, AnnealSchedule(1.5, 30))
        seeds = [7, 2, 19, 4]
        whole = solvers.solve_many(paradigm, models, cfg, seeds)
        halves = [
            outcome
            for half in (slice(0, 2), slice(2, 4))
            for outcome in solvers.solve_many(paradigm, models[half], cfg, seeds[half])
        ]
        singles = [solvers.solve_many(paradigm, [m], cfg, [s])[0] for m, s in zip(models, seeds)]
        assert_same_outcomes(whole, halves)
        assert_same_outcomes(whole, singles)

    def test_default_schedule_splits_alike(self):
        # The default oscillator schedule, noise from 30 down, gives the
        # float32 phases their largest kicks: a seeded batch solves alike
        # whole, in halves and one model at a time, with float64 states and
        # energies.
        models = channel_models("binary", 2, 16, 4, 37, ebn0_db=4.0)
        cfg = replace(default_parameters("oim", 16), replicas=10)
        seeds = [6, 1, 8, 3]
        whole = oim_solve_many(models, cfg, seeds)
        halves = [
            outcome
            for half in (slice(0, 2), slice(2, 4))
            for outcome in oim_solve_many(models[half], cfg, seeds[half])
        ]
        singles = [oim_solve_many([m], cfg, [s])[0] for m, s in zip(models, seeds)]
        assert_same_outcomes(whole, halves)
        assert_same_outcomes(whole, singles)
        for outcome in whole:
            assert outcome.best_state.dtype == outcome.final_energies.dtype == np.float64

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize(
        "paradigm, order",
        [("bpim", 4), ("dpim", 16), ("oim", 2), ("dpim", 4)],
        ids=["bpim", "dpim", "oim", "dpim-qam4"],
    )
    def test_per_model_peaks_match_one_peak_solves(
        self, paradigm, order, replicas, chunked, monkeypatch
    ):
        # One call with a peak per model, as the annealing-peak sweep makes
        # it, against one call per model with that peak in its config: each
        # row's schedule must be the one-peak floats, in whatever chunk its
        # model falls, and a lone replica must score as a column of a batch.
        # dpim runs its softmax kernel at 16-QAM and the p-bit one at 4-QAM.
        first, second = channel_models(PARADIGMS[paradigm].model, order, 4, 2, 17, ebn0_db=6.0)
        # One instance at several peaks beside another instance.
        models = [first, second, first, first]
        peaks = [12.0, 30.0, 5.0, 40.0] if paradigm == "oim" else [0.3, 1.5, 0.05, 2.5]
        seeds = [4, 9, 1, 30]
        cfg = SolverConfig(replicas, AnnealSchedule(1.0, 30))
        serial = [
            solvers.solve_many(paradigm, [m], replace(cfg, schedule=AnnealSchedule(p, 30)), [s])[0]
            for m, p, s in zip(models, peaks, seeds)
        ]
        name = kernel_name(paradigm, order)
        kernel = getattr(solvers, name)
        rows = []

        def spy(*args):
            rows.append(args[-2].shape[1])  # the initial states
            return kernel(*args)

        monkeypatch.setattr(solvers, name, spy)
        if chunked:
            monkeypatch.setattr(solvers, "_MAX_STATE", 3 * first.h_vector.size * replicas)
        batched = solvers.solve_many(paradigm, models, cfg, seeds, peaks=peaks)
        assert rows == ([3 * replicas, replicas] if chunked else [4 * replicas])
        assert_same_outcomes(batched, serial)

    @pytest.mark.parametrize(
        "paradigm, order",
        [("bpim", 4), ("dpim", 16), ("oim", 4), ("dpim", 4)],
        ids=["bpim", "dpim", "oim", "dpim-qam4"],
    )
    def test_every_sweep_gets_one_value_per_row(self, paradigm, order, monkeypatch):
        # One schedule path: with or without per-model peaks, each sweep of
        # a kernel call gets a (rows,) vector, and a solve at the config's
        # peak is a solve with that peak given for every model.
        models = channel_models(PARADIGMS[paradigm].model, order, 3, 3, 31)
        cfg = SolverConfig(2, AnnealSchedule(0.7, 5))
        name = kernel_name(paradigm, order)
        kernel = getattr(solvers, name)
        shapes = []

        def spy(*args):
            rows = args[-2].shape[1]  # the initial states

            def recorded(schedule):
                for value in schedule:
                    shapes.append((np.shape(value), rows))
                    yield value

            # Every kernel takes its schedule third.
            return kernel(*args[:2], recorded(args[2]), *args[3:])

        monkeypatch.setattr(solvers, name, spy)
        default = solvers.solve_many(paradigm, models, cfg, [1, 2, 3])
        given = solvers.solve_many(paradigm, models, cfg, [1, 2, 3], peaks=[0.7] * 3)
        assert shapes == [((6,), 6)] * 10
        assert_same_outcomes(default, given)

    @pytest.mark.parametrize(
        "peaks, message",
        [
            ([0.5], "one peak per model"),
            ([0.5, 0.5, 0.5], "one peak per model"),
            ([0.5, 0.0], "positive, finite peak"),
            ([-1.0, 0.5], "positive, finite peak"),
            ([0.5, np.inf], "positive, finite peak"),
            ([np.nan, 0.5], "positive, finite peak"),
        ],
    )
    def test_peaks_checked(self, peaks, message):
        models = channel_models("binary", 4, 3, 2, 0)
        cfg = default_parameters("bpim", 3, 4)
        with pytest.raises(ValueError, match=message):
            solvers.solve_many("bpim", models, cfg, [0, 1], peaks=peaks)

    @pytest.mark.parametrize(
        "paradigm, order",
        [("bpim", 4), ("dpim", 16), ("oim", 4), ("dpim", 4)],
        ids=["bpim", "dpim", "oim", "dpim-qam4"],
    )
    def test_chunk_bound_counts_state_entries(self, paradigm, order, monkeypatch):
        # A kernel call holds (sites, rows) arrays, two sites per p-dit
        # symbol: the chunks must keep that many entries, not one per
        # symbol, under the bound, and solve as one call does.
        models = channel_models(PARADIGMS[paradigm].model, order, 3, 3, 0)
        cfg = SolverConfig(2, AnnealSchedule(0.5, 5))
        whole = solvers.solve_many(paradigm, models, cfg, [0, 1, 2])
        name = kernel_name(paradigm, order)
        kernel = getattr(solvers, name)
        sizes = []

        def spy(*args):
            sizes.append(args[-2].size)  # the initial states
            return kernel(*args)

        monkeypatch.setattr(solvers, name, spy)
        monkeypatch.setattr(solvers, "_MAX_STATE", 2 * 6 * 2)
        chunked = solvers.solve_many(paradigm, models, cfg, [0, 1, 2])
        assert sizes == [solvers._MAX_STATE, solvers._MAX_STATE // 2]
        assert_same_outcomes(chunked, whole)

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim", "oim"])
    def test_solve_memory_independent_of_iterations(self, paradigm):
        # A solve draws each sweep's noise as the sweep starts, so its traced
        # peak at 400 iterations exceeds the peak at 4 by less than one
        # sweep's (sites, rows) noise block; holding every sweep's noise at
        # once would add about 400 blocks.
        models = channel_models(PARADIGMS[paradigm].model, 4, 16, 2, 12)
        block = models[0].h_vector.nbytes * len(models) * 32
        short, long = (traced_solve_peak(paradigm, models, 32, n_it) for n_it in (4, 400))
        assert long - short < block

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim", "oim"])
    def test_one_generator_draws_each_model(self, paradigm):
        # A model's generator, default_rng(seed), draws its replicas' initial
        # states first and then their noise, sweep by sweep: the stacked
        # sweeps are one (n_it, sites, replicas) fill of the same generator,
        # sites-major with one replica per column; in a batch each model's
        # draws are its own columns.
        # Three BPSK spins give the oscillator's noise its padding row.
        order = 2 if paradigm == "oim" else 4
        (model,) = channel_models(PARADIGMS[paradigm].model, order, 3, 1, 5)
        cfg = SolverConfig(4, AnnealSchedule(1.0, 6))
        n, r = model.n, cfg.replicas

        def expected(seed):
            rng = np.random.default_rng(seed)
            if paradigm == "bpim":
                return rng.integers(0, 2, (n, r)) * 2 - 1, rng.random((6, n, r))
            if paradigm == "dpim":
                levels = model.pam_levels
                return levels[rng.integers(0, levels.size, (2 * n, r))], rng.random((6, 2 * n, r))
            # One uniform per phase, and a padding row on odd n.
            return rng.uniform(0.0, 2.0 * np.pi, (n, r)), rng.random((6, n + n % 2, r))

        draw = draws(paradigm)
        seed = np.random.SeedSequence((5, 1, 2))
        for seeds in ([seed], [3, seed]):
            x0, noise = draw(model, seeds, cfg)
            noise = stacked(noise)
            assert noise.shape[2] == x0.shape[1] == len(seeds) * r
            # Every solver draws float64 uniforms, the oscillator too: its
            # kernel forms its float32 normals from them.
            assert x0.dtype == noise.dtype == np.float64
            for lo, s in zip(range(0, x0.shape[1], r), seeds):
                want_x0, want_noise = expected(s)
                np.testing.assert_array_equal(x0[:, lo : lo + r], want_x0)
                np.testing.assert_array_equal(noise[..., lo : lo + r], want_noise)
        # One SeedSequence object solves alike every time: drawing from it
        # spawns nothing and leaves it as it was.
        first = solvers.solve_many(paradigm, [model], cfg, [seed])
        assert_same_outcomes(solvers.solve_many(paradigm, [model], cfg, [seed]), first)
        assert seed.n_children_spawned == 0

    def test_solve_needs_a_model(self):
        with pytest.raises(ValueError, match="at least one model"):
            solvers.solve_many("bpim", [], default_parameters("bpim", 4, 2), [])

    @pytest.mark.parametrize("replicas", [1, 2, 16])
    def test_solve_matches_replica_kernels(self, replicas):
        # Each row of a batched solve runs that replica's chain alone, and the
        # solve's best is the minimum over its replicas' own chains.
        (model,) = channel_models("binary", 2, 6, 1, 30)
        # A low peak, so replicas end at different energies above their best.
        cfg = SolverConfig(replicas, AnnealSchedule(0.1, 25))
        (out,) = bpim_solve_many([model], cfg, [77])
        s0, u = predrawn("bpim", model, 25, 77, cfg.replicas)
        betas = cfg.schedule.peak * cfg.schedule.ramp()
        # (sweeps, n, replicas): each replica's states from its own chain.
        chains = np.stack(
            [
                sweep_energies(model, betas, s0[:, r : r + 1], u[..., r : r + 1])[0]
                for r in range(cfg.replicas)
            ],
            axis=-1,
        )
        # Scored as the solve scores them, one (n, replicas) stack per sweep.
        h = np.repeat(model.h_vector[:, None], replicas, axis=1)
        energies = np.array([ising_energies(s, model.j_matrix, h) for s in chains])
        # Per replica the first lowest-energy sweep, then the first best replica.
        best_it = energies.argmin(axis=0)
        best_e = energies.min(axis=0)
        best = int(np.argmin(best_e))
        np.testing.assert_array_equal(out.best_state, chains[best_it[best], :, best])
        np.testing.assert_array_equal(out.final_energies, energies[-1])
        assert out.best_energy == best_e[best]
        assert out.best_iteration == best_it[best] + 1

    def test_batched_solve_matches_singles(self):
        cfg = replace(default_parameters("bpim", 5, 4), replicas=10)
        models = channel_models("binary", 4, 5, 6, 40)
        seeds = list(range(6))
        singles = [bpim_solve_many([m], cfg, [seed])[0] for m, seed in zip(models, seeds)]
        assert_same_outcomes(bpim_solve_many(models, cfg, seeds), singles)

    @pytest.mark.parametrize(
        "groups, chunk_models, calls",
        [
            (1, None, [[8, 1, 6], [3, 5, 7]]),
            (2, None, [[8, 1, 6], [3, 5, 7]]),
            (3, None, [[8, 1], [6], [3], [5, 7]]),
            (1, 2, [[8, 1], [6], [3, 5], [7]]),
        ],
        ids=["one-thread", "two-threads-aligned", "three-threads-crossing", "two-model-chunks"],
    )
    @pytest.mark.parametrize("paradigm", ["bpim", "dpim", "oim"])
    def test_batch_of_two_channels_equals_one_call_per_channel(
        self, paradigm, groups, chunk_models, calls, monkeypatch
    ):
        # A batch may hold several channels' models: its kernel calls are cut
        # where the couplings change, and the chunk bound counts again from
        # each cut. Solved whole, in chunks of two models, and as contiguous
        # groups of one solve each, two aligned to the channels or three
        # whose middle group crosses the boundary, the outcomes are those of
        # one call per channel.
        kind, order = PARADIGMS[paradigm].model, 2 if paradigm == "oim" else 4
        first, second = (channel_models(kind, order, 4, 3, ch, ebn0_db=6.0) for ch in (5, 6))
        cfg = SolverConfig(3, AnnealSchedule(1.5, 20))
        seeds = [8, 1, 6, 3, 5, 7]
        per_channel = [
            *solvers.solve_many(paradigm, first, cfg, seeds[:3]),
            *solvers.solve_many(paradigm, second, cfg, seeds[3:]),
        ]
        if chunk_models is not None:
            size = chunk_models * first[0].h_vector.size * cfg.replicas
            monkeypatch.setattr(solvers, "_MAX_STATE", size)
        draw = draws(paradigm)
        chunks = []

        def spy(model, chunk_seeds, config):
            chunks.append(list(chunk_seeds))
            return draw(model, chunk_seeds, config)

        monkeypatch.setattr(solvers, draw.__name__, spy)
        models, step = first + second, len(seeds) // groups
        batched = [
            outcome
            for lo in range(0, len(seeds), step)
            for outcome in solvers.solve_many(
                paradigm, models[lo : lo + step], cfg, seeds[lo : lo + step]
            )
        ]
        assert chunks == calls
        assert_same_outcomes(batched, per_channel)

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim", "oim"])
    def test_kernel_exception_reaches_caller(self, paradigm, monkeypatch):
        # The chunk that holds the last model fails after the first chunk
        # ran, and its error reaches the caller unchanged.
        order = 2 if paradigm == "oim" else 4
        models = channel_models(PARADIGMS[paradigm].model, order, 4, 3, 5)
        cfg = SolverConfig(2, AnnealSchedule(1.5, 5))
        monkeypatch.setattr(solvers, "_MAX_STATE", 2 * models[0].h_vector.size * cfg.replicas)
        name = kernel_name(paradigm, order)
        kernel = getattr(solvers, name)
        rows = []

        def failing(model, h, *rest):
            rows.append(h.shape[1])
            if np.array_equal(h[:, -1], models[-1].h_vector):
                raise RuntimeError("the last chunk failed")
            return kernel(model, h, *rest)

        monkeypatch.setattr(solvers, name, failing)
        with pytest.raises(RuntimeError, match="the last chunk failed"):
            solvers.solve_many(paradigm, models, cfg, [1, 2, 3])
        assert rows == [4, 2]

    def test_orders_sharing_couplings_solve_as_alone(self):
        # A p-dit J does not depend on the QAM order, so one channel's 4-QAM
        # and 16-QAM models may share one J object; the kernel calls are cut
        # where the levels change, and each model is drawn and swept on its
        # own levels, by its own kernel, as when it is solved alone.
        n, j, models = 4, None, []
        for order in (4, 16):
            c = build_constellation(order)
            ((inst, _),) = channel_instances(c, n, 3, 0, range(1), [(0, 10.0)])
            rc = realify(inst.channel, inst.rx_vector, order)
            j = pdit_couplings(rc) if j is None else j
            models.append(build_pdit_model(rc, j))
        models = [*models, *models]
        cfg = SolverConfig(4, AnnealSchedule(1.0, 30))
        seeds = [5, 6, 7, 8]
        alone = [dpim_solve_many([m], cfg, [s])[0] for m, s in zip(models, seeds)]
        assert_same_outcomes(dpim_solve_many(models, cfg, seeds), alone)

    def test_outcome_energy_consistent(self):
        (model,) = channel_models("binary", 2, 12, 1, 19, ebn0_db=6.0)
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
