"""Experiment planning, BER sweeps, confidence bounds, calibration, reporting."""

import csv
import json
import logging
import math
import multiprocessing
import os
import re
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from isingmimo import (
    BerPoint,
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


def blas_threads(item=None):
    """Thread count of numpy's OpenBLAS in this process; None if it has no getter."""
    blas = solvers._openblas()
    return blas and blas[0]()


@contextmanager
def blas_on_one_thread():
    """numpy's OpenBLAS on one thread while the block runs, then back at its count."""
    before = solvers._set_blas_threads(1)
    try:
        yield
    finally:
        solvers._set_blas_threads(before)


def worker_threads(item):
    """(pid, native threads, OpenBLAS thread count) of this process, read
    after a BLAS product and a pause that keeps a pool worker busy while
    another takes the next task."""
    block = np.ones((256, 256))
    block @ block
    time.sleep(0.5)
    return os.getpid(), len(os.listdir("/proc/self/task")), blas_threads()


def solve_blas_threads(item):
    """numpy's OpenBLAS thread count in this process, read after a small
    oscillator fit-beta sweep has run under it."""
    beta_sweep(4, 2, "oim", [10.0, 30.0], n_instances=2, n_trials=2, n_iterations=3, seed=5)
    return blas_threads()


def failing_channel(plan, channel):
    raise RuntimeError(f"channel {channel} failed")


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

    def test_repeated_detector_rejected_naming_it(self):
        # Solver seeds are keyed by the detector's position, so a repeated
        # bpim wrote two bpim rows with different BERs.
        with pytest.raises(ValueError, match="'bpim' is named more than once"):
            plan_experiment(4, 4, [2.0], 448, seed=1, detectors=("bpim", "mmse", "bpim"))
        with pytest.raises(ValueError, match="'mmse' is named more than once"):
            plan_experiment(4, 4, [2.0], 448, seed=1, detectors=("mmse", "mmse"))

    @pytest.mark.parametrize(
        "ebn0_list, named", [([6.0, 6.0], "6.0"), ([0.0, 3.0, 0], "0.0"), ([-0.0, 0.0], "0.0")]
    )
    def test_repeated_ebn0_rejected_naming_it(self, ebn0_list, named):
        # Noise and solver seeds are keyed by the point's position, so a
        # repeated 6 dB wrote two bpim rows at 6 dB with different errors.
        with pytest.raises(ValueError, match=f"Eb/N0 value {named} is named more than once"):
            plan_experiment(4, 4, ebn0_list, 224, seed=1, detectors=("mmse", "bpim"))

    def test_negative_seed_rejected_before_work(self, monkeypatch):
        # It was planned, then stopped at the first SeedSequence.
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        with pytest.raises(ValueError, match="seed must be non-negative; got -1"):
            plan_experiment(4, 4, [10.0], 448, seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative; got -1"):
            harness.plan_beta_sweep(4, 4, "bpim", [0.1], seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative; got -1"):
            beta_sweep(4, 4, "bpim", [0.1], seed=-1)

    @pytest.mark.parametrize("ebn0", [4000.0, -4000.0, -3500.0])
    def test_ebn0_without_usable_noise_rejected_before_work(self, ebn0, monkeypatch):
        # 4000 dB raised OverflowError in noise_sigma_sq at the first cell;
        # -4000 dB warned "divide by zero", then failed at the first detector.
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "channel_instances", no_instances)
        message = f"Eb/N0 of {ebn0} dB gives no usable noise variance"
        with pytest.raises(ValueError, match=message):
            plan_experiment(2, 4, [5.0, ebn0], 56, seed=1)
        plan = harness.ExperimentPlan(2, 4, (5.0, ebn0), 56, 1, ("mmse",), 14, None, None)
        with pytest.raises(ValueError, match=message):
            run_ber_sweep(plan)

    def test_ml_budget_checked_before_running(self):
        with pytest.raises(ValueError, match="budget"):
            plan_experiment(64, 4, [10.0], 64 * 2 * 14, seed=1, detectors=("ml",))
        # The boundary is the exact detector's own: 4**24 == 2**48 is planned.
        assert 4.0**24 == ML_SEARCH_BUDGET
        plan_experiment(24, 4, [10.0], 24 * 2 * 14, seed=1, detectors=("ml",))
        with pytest.raises(ValueError, match="budget"):
            plan_experiment(25, 4, [10.0], 25 * 2 * 14, seed=1, detectors=("ml",))

    @pytest.mark.parametrize("n, order", [(1024, 2), (256, 16)])
    def test_ml_budget_checked_past_the_float_range(self, n, order):
        # order**n is 2**1024 here: as a float it raised OverflowError.
        bits = n * build_constellation(order).bits_per_symbol * 14
        with pytest.raises(ValueError, match="budget"):
            plan_experiment(n, order, [5.0], bits, seed=1, detectors=("ml",))

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
            # A manifest may hold any JSON value: each raised TypeError.
            dict(ebn0_list=5),
            dict(ebn0_list=[None]),
            dict(ebn0_list=[[1]]),
            dict(detectors=5),
            # It planned a run that detects nothing.
            dict(detectors=[]),
            # float() reads each as a number: they planned 5, 3 and 1 dB.
            dict(ebn0_list=["5"]),
            dict(ebn0_list=[b"3"]),
            dict(ebn0_list=[True]),
        ],
    )
    def test_invalid_plan_fails_at_planning(self, change):
        kwargs = dict(n=4, order=4, ebn0_list=[10.0], total_bits=448, seed=1, detectors=("bpim",))
        with pytest.raises(ValueError) as info:
            plan_experiment(**{**kwargs, **change})
        ((name, value),) = change.items()
        if isinstance(value, str):
            assert name in str(info.value)

    @pytest.mark.parametrize("detectors", [("mmse",), ("zf", "ml")])
    @pytest.mark.parametrize(
        "change", [dict(replicas=0), dict(replicas=-3), dict(iterations=0), dict(iterations=-3)]
    )
    def test_counts_below_one_rejected_without_a_heuristic(self, detectors, change):
        # With no heuristic detector nothing else reads these counts, and a
        # manifest recorded them as given.
        kwargs = dict(n=2, order=4, ebn0_list=[5.0], total_bits=56, seed=1, detectors=detectors)
        ((name, _),) = change.items()
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            plan_experiment(**kwargs, **change)


class TestConfidenceBounds:
    def test_paper_scale_value(self):
        assert ber_upper_bound(8601600) == pytest.approx(3.48e-7, rel=0.005)

    def test_fixed_bit_budget_value(self):
        assert ber_upper_bound(86016) == pytest.approx(-math.log(0.05) / 86016)
        assert ber_upper_bound(86016) == pytest.approx(3.4827e-5, rel=1e-3)

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

        def recording(factors, y, sigma_sq, c):
            seen.append((factors.H, y, sigma_sq))
            return real_detect(factors, y, sigma_sq, c)

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

    def test_baselines_share_one_channel_factors_per_channel(self, monkeypatch):
        # Three channels under zf, mmse and ml: one SVD and one QR per
        # channel, and every call of every baseline for channel k gets one
        # factors object, of channel k.
        plan = plan_experiment(
            3, 4, [6.0, 12.0], 36, seed=11, detectors=("zf", "mmse", "ml"), messages_per_channel=2
        )
        assert plan.n_channels == 3
        calls = {}

        def spy(module, name, record):
            real = getattr(module, name)
            calls[name] = []
            monkeypatch.setattr(
                module, name, lambda *a, **k: calls[name].append(record(a)) or real(*a, **k)
            )

        for name in ("svd", "qr"):
            spy(np.linalg, name, lambda args: None)
        for name in ("zf_detect", "mmse_detect", "ml_exact"):
            spy(harness, name, lambda args: args[0])
        run_ber_sweep(plan)
        assert len(calls["svd"]) == 3
        assert len(calls["qr"]) == 3
        c = build_constellation(4)
        names = ("zf_detect", "mmse_detect", "ml_exact")
        assert all(len(calls[name]) == 3 * 2 * 2 for name in names)
        for k in range(3):
            mine = [f for name in names for f in calls[name][4 * k : 4 * k + 4]]
            assert all(isinstance(f, harness.ChannelFactors) for f in mine)
            assert all(f is mine[0] for f in mine)
            inst, _ = build_instance(c, 3, 6.0, 11, k)
            np.testing.assert_array_equal(mine[0].H, inst.channel)

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
        # A channel's models share one j_matrix object and one read-only
        # level array, and equal, bit for bit, the models built one cell at a
        # time.
        c = build_constellation(order)
        insts = [build_instance(c, 3, 8.0, 31, 0, msg, e)[0] for msg in range(3) for e in range(2)]
        H = insts[0].channel
        models, _ = harness._paradigm_models(paradigm, H, [i.rx_vector for i in insts], c)
        assert all(m.j_matrix is models[0].j_matrix for m in models)
        assert all(m.pam_levels is models[0].pam_levels for m in models)
        assert not models[0].pam_levels.flags.writeable
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

    @pytest.mark.parametrize("paradigm", ["bpim", "dpim"])
    def test_models_build_no_constellation_per_cell(self, paradigm, monkeypatch):
        # realify builds the call's one constellation; no cell's model, and
        # no decoding of a state, builds another.
        c = build_constellation(4)
        insts = [build_instance(c, 3, 8.0, 31, 0, msg)[0] for msg in range(3)]
        built = []

        def spy(order):
            built.append(order)
            return build_constellation(order)

        monkeypatch.setattr("isingmimo.channel.build_constellation", spy)
        monkeypatch.setattr(harness, "build_constellation", spy)
        models, to_symbols = harness._paradigm_models(
            paradigm, insts[0].channel, [i.rx_vector for i in insts], c
        )
        for model in models:
            to_symbols(np.ones(model.h_vector.size))
        assert len(models) == 3
        assert built == [4]

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
        assert solvers.pool_map(blas_threads, [0, 1], 2) == [1, 1]

    def test_forked_workers_run_one_native_thread(self):
        # A worker forked from a caller on one BLAS thread inherits the
        # count and never sets it, so OpenBLAS starts no thread in it.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count a process's threads")
        if blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers that are not forked set their BLAS count")
        seen = solvers.pool_map(worker_threads, [0, 1], 2)
        assert len({pid for pid, _, _ in seen}) == 2
        assert [(tasks, count) for _, tasks, count in seen] == [(1, 1), (1, 1)]

    def test_workers_solve_on_one_thread(self):
        # A forked worker solves with the one BLAS thread it inherits.
        if blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        assert solvers.pool_map(solve_blas_threads, [0, 1], 2) == [1, 1]

    def test_spawned_workers_solve_on_one_thread(self, monkeypatch):
        # A worker started by spawn or forkserver (the Linux default from
        # Python 3.14) inherits no BLAS count: only the pool's initializer
        # puts it on one thread.
        if blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
        assert solvers.pool_map(solve_blas_threads, [0, 1], 2) == [1, 1]

    @pytest.mark.parametrize("one_thread", [False, True], ids=["default", "one-thread"])
    def test_pool_sets_the_caller_count_only_when_it_changes(self, one_thread, blas_setter_calls):
        # The caller goes to one thread and back; a forked worker sets nothing
        # in the caller, and a caller on one thread already sets nothing.
        count = blas_threads()
        if count == 1 and not one_thread:
            pytest.skip("the caller's BLAS already runs one thread")
        plan = plan_experiment(4, 4, [10.0], 896, seed=9, detectors=("mmse", "dpim"))
        with blas_on_one_thread() if one_thread else nullcontext():
            blas_setter_calls.clear()
            run_ber_sweep(plan, threads=2)
            assert blas_setter_calls == ([] if one_thread else [1, count])

    @pytest.mark.parametrize("one_thread", [False, True], ids=["default", "one-thread"])
    def test_caller_blas_threads_unchanged(self, one_thread):
        if blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        plan = plan_experiment(4, 4, [10.0], 896, seed=9, detectors=("mmse", "dpim"))
        with blas_on_one_thread() if one_thread else nullcontext():
            before = blas_threads()
            run_ber_sweep(plan, threads=2)
            assert blas_threads() == before

    def test_caller_blas_threads_unchanged_when_a_worker_raises(self, monkeypatch):
        before = blas_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        monkeypatch.setattr(harness, "_channel_errors", failing_channel)
        plan = plan_experiment(4, 4, [10.0], 896, seed=9, detectors=("mmse",))
        with pytest.raises(RuntimeError, match="channel 0 failed"):
            run_ber_sweep(plan, threads=2)
        assert blas_threads() == before

    def test_pool_without_openblas_symbols_gives_the_serial_points(self, monkeypatch):
        # Where numpy's BLAS exports neither symbol, the pool sets nothing
        # and still gives the one-worker sweep's points.
        plan = plan_experiment(4, 4, [10.0], 896, seed=9, detectors=("mmse", "dpim"))
        serial = run_ber_sweep(plan, threads=1)
        monkeypatch.setattr(solvers, "_openblas", lambda: None)
        assert run_ber_sweep(plan, threads=2) == serial

    def test_one_item_or_one_thread_starts_no_pool(self, monkeypatch):
        # A one-channel plan and a one-thread beta sweep run in the caller,
        # as a traced run needs its spans under its own root span.
        def no_pool(*args):
            raise AssertionError("a pool started")

        monkeypatch.setattr(harness, "pool_map", no_pool)
        plan = plan_experiment(4, 4, [10.0], 112, seed=9, detectors=("mmse", "dpim"))
        assert plan.n_channels == 1
        assert len(run_ber_sweep(plan, threads=2)) == 2
        args = dict(n_instances=2, n_trials=4, n_iterations=5, seed=3, threads=1)
        assert beta_sweep(4, 2, "oim", [10.0, 30.0], **args).beta_grid.tolist() == [10.0, 30.0]

    def test_two_channels_map_once_over_two_workers(self, monkeypatch):
        calls = []

        def in_process(function, items, workers):
            calls.append((list(items), workers))
            return [function(item) for item in items]

        monkeypatch.setattr(harness, "pool_map", in_process)
        plan = plan_experiment(4, 4, [10.0], 224, seed=9, detectors=("mmse", "dpim"))
        assert run_ber_sweep(plan, threads=2) == run_ber_sweep(plan, threads=1)
        assert calls == [([0, 1], 2)]

    def test_caller_blas_threads_unchanged_by_beta_sweep(self):
        # The sweep's pool holds the caller's BLAS on one thread while it
        # runs; the caller's count comes back when it ends.
        before = blas_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread-count getter")
        args = dict(n_instances=2, n_trials=4, n_iterations=5, seed=3, threads=2)
        beta_sweep(4, 2, "oim", [10.0, 30.0], **args)
        assert blas_threads() == before


def assert_same_sweep(got, expected):
    """Two beta sweeps agree field for field, every float to the bit."""
    for name in ("beta_grid", "mean_final_energy", "stderr"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
    for name in ("beta_opt", "random_reference", "random_reference_stderr"):
        assert getattr(got, name) == getattr(expected, name)


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
        for sweep in (harness.plan_beta_sweep, beta_sweep):
            with pytest.raises(ValueError, match="unknown paradigm"):
                sweep(4, 2, ["oim"], [1.0, 2.0])
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
                ("order", 4.0),
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
        [
            ("10", "ebn0_list"),
            ([10.0, float("nan")], "Eb/N0"),
            ([-math.inf], "Eb/N0"),
            # float() reads each as a number.
            (["5"], "ebn0_list"),
            ([b"3"], "ebn0_list"),
            ([True], "ebn0_list"),
        ],
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
            # The worker processes are a count of at least one; a bool or a
            # float, as a config file may give them, is no count.
            (dict(threads=0), "threads must be at least 1"),
            (dict(threads=-1), "threads must be at least 1"),
            (dict(threads=True), "threads must be an int"),
            (dict(threads=1.5), "threads must be an int"),
            # float() reads each as a peak: they planned 0.5, 10 and 1.
            (dict(beta_grid=["0.5"]), "beta_grid must hold numbers"),
            (dict(beta_grid=[0.5, b"1e1"]), "beta_grid must hold numbers"),
            (dict(beta_grid=[True]), "beta_grid must hold numbers"),
        ],
    )
    def test_invalid_pool_or_grid_fails_before_any_instance(self, kwargs, message, monkeypatch):
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        args = dict(n=2, order=4, paradigm="dpim", beta_grid=[0.5], n_trials=2, n_iterations=2)
        with pytest.raises(ValueError, match=message):
            beta_sweep(**{**args, **kwargs})

    @pytest.mark.parametrize("order", [0, 3, 8])
    def test_invalid_order_fails_before_any_instance(self, order, monkeypatch):
        # Order 8 was planned and failed only once its sweep was reached; order
        # 0 divided by zero into a misleading "finite peak" error.
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        args = dict(beta_grid=[0.5, 1.0], n_instances=1, n_trials=4, n_iterations=5)
        # fit-beta plans every (n, order) pair before its first sweep.
        with pytest.raises(ValueError, match="modulation order"):
            harness.plan_beta_sweep(4, order, "bpim", **args)
        with pytest.raises(ValueError, match="modulation order"):
            beta_sweep(4, order, "bpim", **args)

    @pytest.mark.parametrize(
        "args, named",
        [
            (dict(beta_grid=[0.5, 0.5, 1.0]), "peak 0.5"),
            (dict(beta_grid=[1.0, 0.5, 1]), "peak 1.0"),
            (dict(beta_grid=[0.5, 1.0], ebn0_list=[3.0, 6.0, 3]), "Eb/N0 value 3.0"),
        ],
    )
    def test_repeated_value_fails_before_any_instance(self, args, named, monkeypatch):
        # Solver seeds are keyed by the peak's position: a repeated 0.5 wrote
        # two rows at 0.5 with different means.
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        args = dict(n_instances=1, n_trials=4, n_iterations=5, **args)
        for sweep in (harness.plan_beta_sweep, beta_sweep):
            with pytest.raises(ValueError, match=f"{named} is named more than once"):
                sweep(4, 4, "bpim", **args)

    def test_ebn0_without_usable_noise_fails_before_any_instance(self, monkeypatch):
        # A -3500 dB point returned NaN means with beta_opt 0.5.
        def no_instances(*args, **kwargs):
            raise AssertionError("an instance was built before validation")

        monkeypatch.setattr(harness, "build_instance", no_instances)
        for sweep in (harness.plan_beta_sweep, beta_sweep):
            with pytest.raises(ValueError, match="Eb/N0 of -3500.0 dB gives no usable"):
                sweep(4, 2, "bpim", [0.5, 1.0], 1, 2, 2, ebn0_list=(-3500.0, 5.0))

    def test_memory_does_not_grow_with_the_pool(self):
        # Each instance is solved before the next is built, so no pool of
        # coupling matrices is held: 8 instances per Eb/N0 value peak within
        # one J of 1 instance per value, where holding the pool took 21 more.
        args = dict(n=64, order=16, paradigm="bpim", beta_grid=[0.05, 0.2], n_trials=2)
        qam16 = build_constellation(16)
        inst, _ = build_instance(qam16, 64, 3.0, 0)
        (model,), _ = harness._paradigm_models("bpim", inst.channel, [inst.rx_vector], qam16)
        one_j = model.j_matrix.nbytes
        beta_sweep(**args, n_instances=1, n_iterations=1)  # warm caches and imports
        peaks = []
        for n_instances in (1, 8):
            tracemalloc.start()
            try:
                beta_sweep(**args, n_instances=n_instances, n_iterations=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < one_j, (peaks, one_j)

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

    def test_oim_sweep_same_on_one_blas_thread(self):
        # A pool worker solves with its BLAS on one thread, the caller under
        # its own count: the result is the same.
        if solvers._openblas() is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count setter")
        args = dict(n_instances=3, n_trials=5, n_iterations=20, ebn0_list=[6.0], seed=4)
        caller = beta_sweep(6, 2, "oim", [10.0, 20.0, 30.0], **args)
        with blas_on_one_thread():
            one = beta_sweep(6, 2, "oim", [10.0, 20.0, 30.0], **args)
        assert_same_sweep(caller, one)

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "paradigm, order, grid",
        [("oim", 2, [10.0, 20.0, 30.0]), ("bpim", 4, [0.2, 0.8])],
        ids=["oim", "bpim"],
    )
    def test_pool_gives_the_one_process_result(self, paradigm, order, grid, start, monkeypatch):
        # An odd pool of whole instances over two workers, forked or
        # spawned, against the one-process loop: each instance draws only
        # from seeds keyed by its pool index.
        args = dict(n_instances=3, n_trials=5, n_iterations=20, ebn0_list=[6.0], seed=4)
        one = beta_sweep(6, order, paradigm, grid, **args)
        if start == "spawn":
            spawn = multiprocessing.get_context("spawn")
            monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
        assert_same_sweep(beta_sweep(6, order, paradigm, grid, threads=2, **args), one)

    @pytest.mark.parametrize(
        "grid, energy, at_edge, beta_opt",
        [
            ([1.0, 2.0, 3.0], lambda peak: peak, True, 1.0),
            ([1.0, 2.0, 3.0], lambda peak: -peak, True, 3.0),
            ([1.0, 2.0, 3.0], lambda peak: (peak - 2.0) ** 2, False, 2.0),
            ([2.0], lambda peak: peak, True, 2.0),
        ],
        ids=["low-edge", "high-edge", "interior", "one-peak"],
    )
    def test_minimum_at_the_grid_edge_is_flagged(
        self, grid, energy, at_edge, beta_opt, monkeypatch
    ):
        # Each cell's final energies depend on its peak alone, so the lowest
        # mean lies where ``energy`` is lowest.
        def solve(paradigm, models, cfg, seeds, peaks=None):
            return [
                SimpleNamespace(final_energies=np.full(cfg.replicas, energy(peak)))
                for peak in peaks
            ]

        monkeypatch.setattr(harness, "solve_many", solve)
        res = beta_sweep(4, 4, "bpim", grid, n_instances=2, n_trials=3, n_iterations=2)
        assert (res.at_edge, res.beta_opt) == (at_edge, beta_opt)

    def test_ebn0_list_may_be_a_generator(self):
        # As plan_experiment takes it: the list is checked in one place.
        args = dict(n_instances=1, n_trials=2, n_iterations=2, seed=3)
        res = beta_sweep(2, 4, "dpim", [0.5], ebn0_list=(v for v in (4.0, 8.0)), **args)
        listed = beta_sweep(2, 4, "dpim", [0.5], ebn0_list=[4.0, 8.0], **args)
        np.testing.assert_array_equal(res.mean_final_energy, listed.mean_final_energy)
        assert res.random_reference_stderr == listed.random_reference_stderr > 0


class TestFitScalingLaw:
    def test_edge_point_refused(self):
        # A sweep whose lowest mean is at its grid's edge bounds the optimum
        # on one side only; an interior one is fitted by its beta_opt.
        def swept(beta_opt, means):
            grid = np.array([beta_opt / 2, beta_opt, beta_opt * 2])
            return harness.BetaSweepResult(grid, np.array(means), grid, beta_opt, 0.0, 0.0)

        inner = [(n, 2, swept(math.sqrt(3) * n ** (-2 / 3), [1, 0, 1])) for n in (8, 16, 32)]
        assert not any(result.at_edge for _, _, result in inner)
        fit = fit_scaling_law(inner)
        assert fit.exponent == pytest.approx(-2 / 3, abs=1e-9)
        edge = [*inner[:2], (32, 2, swept(0.2, [0, 1, 2]))]
        assert edge[2][2].at_edge
        with pytest.raises(ValueError, match="n=32 order=2: the lowest mean is at the grid's edge"):
            fit_scaling_law(edge)

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
        assert csv_path.name == "results.csv"
        assert harness.plan_from_manifest(manifest_path) == plan

    @pytest.mark.parametrize(
        "csv_name", ["manifest.json", "../escape.csv", "sub/results.csv", "", ".", ".."]
    )
    def test_csv_name_checked_before_any_file_is_written(self, csv_name, tmp_path):
        # A hand-edited manifest is the only source of another CSV name; a
        # CSV named manifest.json overwrote the manifest, and ../escape.csv
        # was written outside the output directory.
        plan = plan_experiment(4, 4, [8.0], 448, seed=11, detectors=("mmse",))
        _, manifest_path = report([], plan, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest["csv"] = csv_name
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="csv must be results.csv"):
            harness.plan_from_manifest(manifest_path)

    def test_empty_results_header_only(self, tmp_path):
        plan = plan_experiment(4, 4, [8.0], 448, seed=11, detectors=("mmse",))
        csv_path, _ = report([], plan, tmp_path)
        assert csv_path.read_text().splitlines() == [",".join(f.name for f in fields(BerPoint))]

    def test_columns_are_the_point_fields(self, tmp_path):
        # One schema: the header is the point's field names, and each row is
        # its point's fields, ints as str, floats as repr and None empty.
        plan = plan_experiment(
            4, 4, [8.0, 12.0], 448, seed=11, detectors=("mmse", "bpim"), replicas=2, iterations=5
        )
        points = run_ber_sweep(plan)
        csv_path, _ = report(points, plan, tmp_path)
        with open(csv_path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == [f.name for f in fields(BerPoint)]

        def cell(v):
            return "" if v is None else repr(v) if isinstance(v, float) else str(v)

        assert rows == [[cell(v) for v in astuple(p)] for p in points]
        assert [row[0] for row in rows] == ["mmse", "mmse", "bpim", "bpim"]
        for row in (dict(zip(header, r)) for r in rows):
            assert (row["n"], row["order"], row["seed"]) == ("4", "4", "11")
            solver = ("2", "5") if row["detector"] == "bpim" else ("", "")
            assert (row["replicas"], row["iterations"]) == solver

    def test_manifest_with_unknown_plan_keys_is_refused(self, tmp_path):
        plan = plan_experiment(4, 4, [8.0], 448, seed=11, detectors=("mmse",))
        _, manifest_path = report([], plan, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest["plan"].update(replica=5, bogus="x")
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown keys replica, bogus"):
            harness.plan_from_manifest(manifest_path)

    def test_manifest_records_the_project_version(self, tmp_path):
        # One version: a bump in pyproject.toml alone would leave manifests stale.
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        version = tomllib.loads(pyproject.read_text())["project"]["version"]
        plan = plan_experiment(4, 4, [8.0], 448, seed=11, detectors=("mmse",))
        _, manifest_path = report([], plan, tmp_path)
        assert json.loads(manifest_path.read_text())["version"] == version

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        plan = plan_experiment(4, 4, [9.0], 896, seed=12, detectors=("mmse", "dpim"))
        points = run_ber_sweep(plan)
        csv_path, manifest_path = report(points, plan, tmp_path / "a")
        plan2 = harness.plan_from_manifest(manifest_path)
        points2 = run_ber_sweep(plan2, threads=2)
        csv_path2, _ = report(points2, plan2, tmp_path / "b")
        assert csv_path.read_bytes() == csv_path2.read_bytes()
