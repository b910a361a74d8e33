"""Experiment planning, BER sweeps, confidence bounds, calibration, reporting."""

import ctypes
import logging
import math
import re

import numpy as np
import pytest
from scipy import stats

from isingmimo import (
    SingularChannelError,
    ber_upper_bound,
    beta_sweep,
    build_binary_model,
    build_constellation,
    build_instance,
    build_pdit_model,
    fit_scaling_law,
    plan_experiment,
    realify,
    report,
    run_ber_sweep,
)
from isingmimo import harness, solvers
from isingmimo.baselines import ML_SEARCH_BUDGET


def blas_threads():
    """Thread count of numpy's OpenBLAS in this process; None if it has no getter."""
    core = getattr(np, "_core", None) or np.core  # numpy 1.x names it core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


class TestPlanExperiment:
    def test_bpsk_reference_counts(self):
        plan = plan_experiment(32, 2, [10.0], 86016, seed=1)
        assert plan.n_channels == 192  # 6144 / 32
        assert plan.messages_per_channel == 14
        assert plan.bits_per_message == 32
        assert plan.n_channels * 14 * 32 == plan.total_bits == 86016

    def test_qam_split_holds_total_bits(self):
        plan = plan_experiment(32, 4, [10.0], 86016, seed=1)
        assert plan.bits_per_message == 64
        assert plan.n_channels == 96
        plan8 = plan_experiment(8, 4, [10.0], 8960, seed=1)
        assert plan8.bits_per_message == 16
        assert plan8.n_channels * 14 * 16 == 8960

    def test_non_integral_split_rejected_with_suggestion(self):
        # nearest multiple of the 448-bit channel block
        with pytest.raises(ValueError, match="99904"):
            plan_experiment(16, 4, [10.0], 100000, seed=1)

    def test_detector_validation(self):
        with pytest.raises(ValueError, match="unknown detector"):
            plan_experiment(4, 4, [10.0], 448, seed=1, detectors=("sphere",))
        with pytest.raises(ValueError, match="oim"):
            plan_experiment(4, 4, [10.0], 448, seed=1, detectors=("oim",))
        with pytest.raises(ValueError, match="dpim"):
            plan_experiment(4, 2, [10.0], 112, seed=1, detectors=("dpim",))
        with pytest.raises(ValueError, match="Eb/N0"):
            plan_experiment(4, 2, [], 112, seed=1)

    def test_ml_budget_checked_before_running(self):
        with pytest.raises(ValueError, match="budget"):
            plan_experiment(64, 4, [10.0], 64 * 2 * 14, seed=1, detectors=("ml",))
        # The boundary is the exact detector's own: 4**24 == 2**48 is planned.
        assert 4.0**24 == ML_SEARCH_BUDGET
        plan_experiment(24, 4, [10.0], 24 * 2 * 14, seed=1, detectors=("ml",))
        with pytest.raises(ValueError, match="budget"):
            plan_experiment(25, 4, [10.0], 25 * 2 * 14, seed=1, detectors=("ml",))

    @pytest.mark.parametrize(
        "change",
        [
            dict(n=0),
            dict(messages_per_channel=0),
            dict(replicas=0),
            dict(iterations=0),
            dict(ebn0_list=[10.0, float("nan")]),
            dict(ebn0_list=[-math.inf]),
            # Counts and the seed are ints, never rounded.
            dict(n=4.0),
            dict(n=None),
            dict(total_bits=448.0),
            dict(seed=1.5),
            dict(seed=True),
            dict(messages_per_channel=14.0),
            dict(replicas=2.5),
            dict(iterations=True),
            # A numpy int would plan and run, then fail to reach the manifest.
            dict(order=np.int64(4)),
            # A string is not split into characters.
            dict(ebn0_list="10"),
            dict(detectors="mmse"),
        ],
    )
    def test_invalid_plan_fails_at_planning(self, change):
        kwargs = dict(n=4, order=4, ebn0_list=[10.0], total_bits=448, seed=1, detectors=("bpim",))
        with pytest.raises(ValueError) as info:
            plan_experiment(**{**kwargs, **change})
        ((name, value),) = change.items()
        if isinstance(value, str):
            assert name in str(info.value)


class TestConfidenceBounds:
    def test_paper_scale_value(self):
        assert ber_upper_bound(8601600) == pytest.approx(3.48e-7, rel=0.005)

    def test_fixed_bit_budget_value(self):
        assert ber_upper_bound(86016) == pytest.approx(-math.log(0.05) / 86016)
        assert ber_upper_bound(86016) == pytest.approx(3.4827e-5, rel=1e-3)

    def test_unit_case(self):
        assert ber_upper_bound(1, confidence=1 - 1 / math.e) == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ber_upper_bound(0)


class TestRunBerSweep:
    def test_noiseless_gives_zero_errors(self):
        plan = plan_experiment(
            4,
            4,
            [np.inf],
            448,
            seed=2,
            detectors=("zf", "mmse", "ml", "bpim", "dpim"),
        )
        points = run_ber_sweep(plan)
        assert all(p.errors == 0 and p.ber == 0.0 for p in points)

    def test_bit_conservation_and_row_count(self):
        plan = plan_experiment(4, 4, [8.0, 12.0], 448, seed=3, detectors=("mmse", "zf"))
        points = run_ber_sweep(plan)
        assert len(points) == 4  # detectors x points
        assert all(p.bits == plan.total_bits for p in points)
        per_detector = {}
        for p in points:
            per_detector.setdefault(p.detector, []).append(p.ebn0_db)
        assert per_detector == {"mmse": [8.0, 12.0], "zf": [8.0, 12.0]}

    def test_monotone_ber_up_to_binomial_noise(self):
        def clopper_pearson(errors, n_bits, alpha=0.05):
            lo = 0.0 if errors == 0 else stats.beta.ppf(alpha / 2, errors, n_bits - errors + 1)
            hi = (
                1.0
                if errors == n_bits
                else stats.beta.ppf(1 - alpha / 2, errors + 1, n_bits - errors)
            )
            return lo, hi

        plan = plan_experiment(
            8, 2, [2.0, 6.0, 10.0, 14.0], 13440, seed=4, detectors=("mmse",)
        )
        points = run_ber_sweep(plan)
        for a, b in zip(points, points[1:]):
            if a.ber < b.ber:  # allowed only when intervals overlap
                lo_a, hi_a = clopper_pearson(a.errors, a.bits)
                lo_b, hi_b = clopper_pearson(b.errors, b.bits)
                assert max(lo_a, lo_b) <= min(hi_a, hi_b)

    def test_heuristic_metadata_recorded(self):
        plan = plan_experiment(
            4, 4, [10.0], 448, seed=5, detectors=("dpim", "mmse"), replicas=7, iterations=20
        )
        points = run_ber_sweep(plan)
        dpim = [p for p in points if p.detector == "dpim"][0]
        mmse = [p for p in points if p.detector == "mmse"][0]
        assert (dpim.replicas, dpim.iterations) == (7, 20)
        assert (mmse.replicas, mmse.iterations) == (None, None)

    def test_thread_count_does_not_change_results(self):
        plan = plan_experiment(
            4, 4, [6.0, 10.0], 1792, seed=6, detectors=("mmse", "dpim")
        )
        a = run_ber_sweep(plan, threads=1)
        b = run_ber_sweep(plan, threads=2)
        assert a == b

    def test_build_instance_replays_every_cell(self, monkeypatch):
        # The plan's seed rebuilds any cell, so a failed one needs no instance file.
        plan = plan_experiment(
            3, 4, [6.0, 12.0], 24, seed=11, detectors=("mmse",), messages_per_channel=2
        )
        seen = []

        def recording(H, y, sigma_sq, es, c):
            seen.append((H, y, sigma_sq))
            return real_detect(H, y, sigma_sq, es, c)

        real_detect = harness.mmse_detect
        monkeypatch.setattr(harness, "mmse_detect", recording)
        run_ber_sweep(plan)
        cells = [(ch, msg, e) for ch in range(2) for msg in range(2) for e in range(2)]
        assert len(seen) == len(cells)
        for (H, y, sigma_sq), (ch, msg, e) in zip(seen, cells):
            inst, _ = build_instance(
                build_constellation(4), 3, plan.ebn0_list[e], 11, ch, msg, e
            )
            np.testing.assert_array_equal(inst.channel, H)
            np.testing.assert_array_equal(inst.rx_vector, y)
            assert inst.sigma_sq == sigma_sq

    def test_detector_failure_counts_all_bits(self, monkeypatch, caplog):
        plan = plan_experiment(
            4, 4, [6.0, 10.0], 48, seed=7, detectors=("zf", "mmse"), messages_per_channel=2
        )
        assert plan.n_channels == 3
        seen = []

        def broken(H, y, c):
            seen.append(y)
            raise SingularChannelError("injected failure")

        monkeypatch.setattr(harness, "zf_detect", broken)
        with caplog.at_level(logging.ERROR, logger=harness.logger.name):
            points = run_ber_sweep(plan, threads=1)
        zf = [p for p in points if p.detector == "zf"][0]
        mmse = [p for p in points if p.detector == "mmse"][0]
        assert zf.errors == plan.total_bits and zf.ber == 1.0
        assert mmse.errors < plan.total_bits
        # Each failure log names the indices that rebuild the failed cell.
        logged = [
            re.search(r"channel (\d+) message (\d+) point (\d+) \((\S+) dB\)", r.getMessage())
            for r in caplog.records
        ]
        assert len(logged) == len(seen) == 3 * 2 * 2
        cells = set()
        for match, y in zip(logged, seen):
            channel, message, point = (int(g) for g in match.groups()[:3])
            cells.add((channel, message, point))
            ebn0 = plan.ebn0_list[point]
            assert float(match.group(4)) == ebn0
            inst, _ = build_instance(
                build_constellation(4), 4, ebn0, plan.seed, channel, message, point
            )
            assert inst.rx_vector.tobytes() == y.tobytes()
        assert len(cells) == len(seen)

    @pytest.mark.parametrize("detector, call", [("zf", "zf_detect"), ("bpim", "solve_many")])
    def test_unexpected_detector_error_propagates(self, monkeypatch, detector, call):
        plan = plan_experiment(4, 4, [10.0], 448, seed=7, detectors=(detector,))

        def broken(*args, **kwargs):
            raise RuntimeError("injected bug")

        monkeypatch.setattr(harness, call, broken)
        with pytest.raises(RuntimeError, match="injected bug"):
            run_ber_sweep(plan, threads=1)

    @pytest.mark.parametrize(
        "paradigm, order", [("bpim", 2), ("bpim", 4), ("bpim", 16), ("dpim", 4), ("dpim", 64)]
    )
    def test_models_share_couplings_built_once(self, paradigm, order):
        # A channel's models share one j_matrix object and equal, bit for bit,
        # the models built one cell at a time.
        c = build_constellation(order)
        insts = [build_instance(c, 3, 8.0, 31, 0, msg, e)[0] for msg in range(3) for e in range(2)]
        H = insts[0].channel
        models, _ = harness._paradigm_models(paradigm, H, [i.rx_vector for i in insts], order)
        assert all(m.j_matrix is models[0].j_matrix for m in models)
        for inst, model in zip(insts, models):
            if paradigm == "bpim":
                alone = build_binary_model(realify(H, inst.rx_vector, order))
                assert model.offset == alone.offset
            else:
                alone = build_pdit_model(realify(H, inst.rx_vector, order))
                np.testing.assert_array_equal(model.pam_levels, alone.pam_levels)
            assert np.array_equal(model.j_matrix, alone.j_matrix)
            assert np.array_equal(model.h_vector, alone.h_vector)
            assert model.n == alone.n

    def test_constellation_built_once_per_sweep(self, monkeypatch):
        plan = plan_experiment(
            3, 16, [6.0, 12.0], 72, seed=9, detectors=("zf", "mmse", "ml"), messages_per_channel=2
        )
        assert plan.n_channels > 1
        built = []
        build = harness.build_constellation
        monkeypatch.setattr(
            harness, "build_constellation", lambda order: built.append(order) or build(order)
        )
        run_ber_sweep(plan, threads=1)
        assert built == [16]

    def test_threads_below_one_rejected_before_work(self, monkeypatch):
        plan = plan_experiment(4, 4, [10.0], 896, seed=8, detectors=("mmse",))

        def no_work(*args):
            raise AssertionError("a channel ran")

        monkeypatch.setattr(harness, "_channel_errors", no_work)
        with pytest.raises(ValueError, match="threads"):
            run_ber_sweep(plan, threads=0)

    @pytest.mark.parametrize("threads", ["2", 2.5])
    def test_threads_must_be_an_int(self, threads, monkeypatch):
        # "2" died in min() with a TypeError, and 2.5 ran a two-worker pool.
        plan = plan_experiment(4, 4, [10.0], 896, seed=8, detectors=("mmse",))

        def no_work(*args):
            raise AssertionError("a channel ran")

        monkeypatch.setattr(harness, "_channel_errors", no_work)
        with pytest.raises(ValueError, match="threads must be an int"):
            run_ber_sweep(plan, threads=threads)

    @pytest.mark.parametrize("total_bits", [100, 232])
    def test_plan_not_from_plan_experiment_rejected_before_work(self, monkeypatch, total_bits):
        # 100 bits make no whole channel of 14 messages x 8 bits, and 232 make
        # two with 8 bits left over; plan_experiment refuses both.
        plan = harness.ExperimentPlan(
            n=4,
            order=4,
            ebn0_list=(10.0,),
            total_bits=total_bits,
            seed=8,
            detectors=("mmse",),
            messages_per_channel=14,
            replicas=None,
            iterations=None,
        )

        def no_work(*args):
            raise AssertionError("a channel ran")

        monkeypatch.setattr(harness, "_channel_errors", no_work)
        with pytest.raises(ValueError, match="total_bits"):
            run_ber_sweep(plan)


class TestWorkerPool:
    def test_workers_run_one_blas_thread(self):
        if blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        with harness._worker_pool(2) as pool:
            assert pool.submit(blas_threads).result(timeout=60) == 1

    def test_workers_solve_on_one_thread(self):
        # An oscillator solve of eight models in a worker runs on one thread.
        with harness._worker_pool(2) as pool:
            assert pool.submit(solvers._oim_threads, 8).result(timeout=60) == 1

    def test_caller_blas_threads_unchanged(self):
        before = blas_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        plan = plan_experiment(4, 4, [10.0], 896, seed=9, detectors=("mmse", "dpim"))
        run_ber_sweep(plan, threads=2)
        assert blas_threads() == before

    def test_caller_blas_threads_unchanged_by_beta_sweep(self):
        # The oscillator solves split into threads and pin the BLAS to one
        # thread while they run.
        before = blas_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        beta_sweep(4, 2, "oim", [10.0, 30.0], n_instances=2, n_trials=4, n_iterations=5, seed=3)
        assert blas_threads() == before


class TestBetaSweep:
    def test_tiny_beta_reaches_random_energy(self):
        grid = [1e-9, 0.4]
        res = beta_sweep(
            4, 4, "bpim", grid, n_instances=6, n_trials=40, n_iterations=50, seed=9
        )
        # At a vanishing peak the chain never biases, so the mean final
        # energy matches the random-configuration reference within noise.
        gap = abs(res.mean_final_energy[0] - res.random_reference)
        sigma = 3 * np.hypot(res.stderr[0], res.random_reference_stderr)
        assert gap < max(sigma, 0.05)
        # and annealing at a sensible peak does strictly better
        assert res.mean_final_energy[1] < res.mean_final_energy[0] - 5 * res.stderr[1]

    def test_grid_validation_and_result_fields(self, monkeypatch):
        with pytest.raises(ValueError):
            beta_sweep(4, 4, "bpim", [])
        with pytest.raises(ValueError):
            beta_sweep(4, 4, "bpim", [-0.1, 0.2])
        with pytest.raises(ValueError):
            beta_sweep(4, 4, "annealer", [0.1])
        with pytest.raises(ValueError, match="instance pool"):
            beta_sweep(4, 4, "bpim", [0.1], n_instances=0)
        with pytest.raises(ValueError, match="Eb/N0 point"):
            beta_sweep(4, 4, "bpim", [0.1], ebn0_list=[])
        # Bad trial and iteration counts fail before any instance is built.
        with monkeypatch.context() as m:

            def no_instances(*args, **kwargs):
                raise AssertionError("an instance was built before validation")

            m.setattr(harness, "build_instance", no_instances)
            with pytest.raises(ValueError, match="replica"):
                beta_sweep(4, 4, "bpim", [0.1], n_trials=0)
            with pytest.raises(ValueError, match="iteration"):
                beta_sweep(4, 4, "bpim", [0.1], n_iterations=0)
            # Counts and the seed are ints, never rounded.
            for name, value in [
                ("n", 4.0),
                ("n_instances", 1.5),
                ("n_trials", 10.0),
                ("n_iterations", 20.0),
                ("seed", 1.5),
                ("seed", True),
            ]:
                kwargs = {**dict(n=4, order=4, paradigm="bpim", beta_grid=[0.1]), name: value}
                with pytest.raises(ValueError, match=f"{name} must be an int"):
                    beta_sweep(**kwargs)
        res = beta_sweep(
            2, 4, "dpim", [0.05, 0.5], n_instances=2, n_trials=10, n_iterations=20, seed=1
        )
        assert res.beta_grid.shape == res.mean_final_energy.shape == (2,)
        assert res.beta_opt in res.beta_grid


    @pytest.mark.parametrize(
        "ebn0_list, message",
        [("10", "ebn0_list"), ([10.0, float("nan")], "Eb/N0"), ([-math.inf], "Eb/N0")],
    )
    def test_invalid_ebn0_fails_before_any_instance(self, ebn0_list, message, monkeypatch):
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        with pytest.raises(ValueError, match=message):
            beta_sweep(
                2, 4, "dpim", [0.5], ebn0_list=ebn0_list, n_instances=1, n_trials=2, n_iterations=2
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # A string grid would be split into characters: "12" ran [1.0, 2.0].
            (dict(beta_grid="12"), "beta_grid must be a sequence"),
            # One instance in all leaves the random reference no standard error.
            (dict(n_instances=1, ebn0_list=[6.0]), "instance pool"),
            # Every peak is checked, wherever sorting puts a NaN.
            (dict(beta_grid=[0.5, float("nan")]), "finite peak"),
        ],
    )
    def test_invalid_pool_or_grid_fails_before_any_instance(self, kwargs, message, monkeypatch):
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        args = dict(n=2, order=4, paradigm="dpim", beta_grid=[0.5], n_trials=2, n_iterations=2)
        with pytest.raises(ValueError, match=message):
            beta_sweep(**{**args, **kwargs})

    def test_one_solve_per_instance_with_a_model_per_peak(self, monkeypatch):
        # Every peak of an instance shares the instance's couplings, so one
        # call solves them all, each cell still from its own seed.
        calls = []
        solve = harness.solve_many

        def spy(paradigm, models, cfg, seeds, peaks=None):
            calls.append((models, cfg, list(seeds), peaks))
            return solve(paradigm, models, cfg, seeds, peaks=peaks)

        monkeypatch.setattr(harness, "solve_many", spy)
        grid = [0.6, 0.05, 0.3]
        beta_sweep(
            2, 4, "dpim", grid, n_instances=2, n_trials=3, n_iterations=5, ebn0_list=[4.0, 8.0], seed=6
        )
        assert len(calls) == 2 * 2
        for m_idx, (models, cfg, seeds, peaks) in enumerate(calls):
            assert len(models) == len(grid) and all(m is models[0] for m in models)
            np.testing.assert_array_equal(peaks, sorted(grid))
            assert isinstance(cfg, harness.SolverConfig)
            assert (cfg.replicas, cfg.schedule.n_iterations) == (3, 5)
            want = [harness.derive_seed(6, harness.ROLE_SOLVER, b, m_idx) for b in range(3)]
            assert [s.entropy for s in seeds] == [s.entropy for s in want]
        assert len({id(models[0]) for models, *_ in calls}) == len(calls)

    def test_ebn0_list_may_be_a_generator(self):
        # As plan_experiment takes it: the list is checked in one place.
        args = dict(n_instances=1, n_trials=2, n_iterations=2, seed=3)
        res = beta_sweep(2, 4, "dpim", [0.5], ebn0_list=(v for v in (4.0, 8.0)), **args)
        listed = beta_sweep(2, 4, "dpim", [0.5], ebn0_list=[4.0, 8.0], **args)
        np.testing.assert_array_equal(res.mean_final_energy, listed.mean_final_energy)
        assert res.random_reference_stderr == listed.random_reference_stderr > 0


class TestFitScalingLaw:
    def test_recovers_qam_law_exactly(self):
        points = [(n, m, 13.0 / (n * math.sqrt(m))) for n in (8, 16, 32) for m in (4, 16, 64)]
        fit = fit_scaling_law(points)
        assert fit.family == "qam"
        assert fit.coefficient == pytest.approx(13.0, abs=1e-9)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-9)
        assert np.abs(fit.residuals).max() < 1e-12

    def test_recovers_bpsk_law_exactly(self):
        points = [(n, 2, math.sqrt(3) * n ** (-2 / 3)) for n in (8, 16, 32, 64)]
        fit = fit_scaling_law(points)
        assert fit.family == "bpsk"
        assert fit.coefficient == pytest.approx(math.sqrt(3), abs=1e-9)
        assert fit.exponent == pytest.approx(-2 / 3, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="three"):
            fit_scaling_law([(8, 2, 0.1), (16, 2, 0.05)])
        with pytest.raises(ValueError, match="mix"):
            fit_scaling_law([(8, 2, 0.1), (8, 4, 0.1), (16, 4, 0.05)])
        with pytest.raises(ValueError, match="degenerate"):
            fit_scaling_law([(8, 2, 0.1), (8, 2, 0.11), (8, 2, 0.12)])
        with pytest.raises(ValueError, match="positive"):
            fit_scaling_law([(8, 2, 0.1), (16, 2, -0.05), (32, 2, 0.02)])

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        # A NaN or infinite peak gave an all-NaN fit without an error.
        with pytest.raises(ValueError, match="beta values must be positive and finite"):
            fit_scaling_law([(4, 2, 0.5), (8, 2, beta), (16, 2, 0.2)])

    @pytest.mark.parametrize(
        "points, name",
        [
            ([(4.7, 2, 0.5), (8.2, 2, 0.3), (16.9, 2, 0.2)], "n"),
            ([(4, 2, 0.5), (8, 2.0, 0.3), (16, 2, 0.2)], "order"),
            ([(4, 4, 0.5), (np.int64(8), 4, 0.3), (16, 4, 0.2)], "n"),
            ([(4, 4, 0.5), (8, 4, 0.3), (16, True, 0.2)], "order"),
        ],
    )
    def test_sizes_and_orders_are_ints(self, points, name):
        # (4.7, 8.2, 16.9) would otherwise fit exactly as (4, 8, 16) do.
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            fit_scaling_law(points)


class TestReport:
    def test_csv_and_manifest_round_trip(self, tmp_path):
        plan = plan_experiment(4, 4, [8.0, 12.0], 448, seed=11, detectors=("mmse",))
        points = run_ber_sweep(plan)
        csv_path, manifest_path = report(points, plan, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("detector,n,order,")
        assert len(lines) == 1 + len(points)
        plan2, csv_name = harness.plan_from_manifest(manifest_path)
        assert plan2 == plan
        assert csv_name == "results.csv"

    def test_empty_results_header_only(self, tmp_path):
        plan = plan_experiment(4, 4, [8.0], 448, seed=11, detectors=("mmse",))
        csv_path, _ = report([], plan, tmp_path)
        assert csv_path.read_text().splitlines() == [",".join(harness.CSV_COLUMNS)]

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        plan = plan_experiment(4, 4, [9.0], 896, seed=12, detectors=("mmse", "dpim"))
        points = run_ber_sweep(plan)
        csv_path, manifest_path = report(points, plan, tmp_path / "a")
        plan2, _ = harness.plan_from_manifest(manifest_path)
        points2 = run_ber_sweep(plan2, threads=2)
        csv_path2, _ = report(points2, plan2, tmp_path / "b")
        assert csv_path.read_bytes() == csv_path2.read_bytes()
