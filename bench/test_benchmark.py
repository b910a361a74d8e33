"""Tests of the benchmark's own measuring code: spans, counts and the
rules that decide what gets reported."""

import types
from dataclasses import replace

import numpy as np
import pytest

import run
import tracer
from isingmimo import harness
from isingmimo.channel import realify
from isingmimo.ising_map import build_binary_model
from isingmimo.solvers import bpim_solve_many, default_parameters


def _span(start, end, parent=None, span_id=0):
    return tracer.Span(span_id, parent, "x", "layer", start, end)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tracer.tail_reportable(100, 0.9)
    assert not tracer.tail_reportable(99, 0.9)
    assert tracer.tail_reportable(20, 0.5)
    assert not tracer.tail_reportable(19, 0.5)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0.0, 10.0)
    children = [_span(1, 3), _span(2, 4), _span(6, 7), _span(9, 12)]
    # Children cover [1, 4], [6, 7] and [9, 10] inside the parent.
    assert tracer.self_time(parent, children) == pytest.approx(5.0)
    assert tracer.self_time(parent, []) == pytest.approx(10.0)


def _tiny_binary_models(count):
    rng = np.random.default_rng(3)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return [
        build_binary_model(realify(H, rng.standard_normal(3) + 0j, 2)) for _ in range(count)
    ]


def test_site_updates_are_rows_times_iterations_times_sites():
    models = _tiny_binary_models(2)
    cfg = default_parameters("bpim", 3)
    cfg = replace(cfg, replicas=4, schedule=replace(cfg.schedule, n_iterations=5))
    counts = tracer.solver_counts({"models": models, "cfg": cfg}, None)
    assert counts == {"models": 2, "rows": 8, "site_updates": 8 * 5 * 3}
    single = tracer.solver_counts({"model": models[0], "cfg": cfg}, None)
    assert single["rows"] == 4 and single["site_updates"] == 4 * 5 * 3
    assert tracer.solver_counts({"paradigm": "bpim", "n": 3}, None) == {}


def test_wrapper_returns_the_callees_result_unchanged():
    models = _tiny_binary_models(2)
    cfg = default_parameters("bpim", 3)
    cfg = replace(cfg, replicas=4, schedule=replace(cfg.schedule, n_iterations=5))
    sentinel = object()
    trace = tracer.Tracer()
    passthrough = trace.wrap(lambda *a, **k: sentinel, "channel")
    assert passthrough(1, key=2) is sentinel

    traced = trace.wrap(bpim_solve_many, "solvers")
    got = traced(models, cfg, [1, 2])
    want = bpim_solve_many(models, cfg, [1, 2])
    for g, w in zip(got, want):
        assert np.array_equal(g.best_state, w.best_state)
        assert g.best_energy == w.best_energy
        assert np.array_equal(g.final_energies, w.final_energies)
    span = trace.spans[-1]
    assert span.detector == "bpim" and span.layer == "solvers"
    assert span.counts["site_updates"] == 8 * 5 * 3
    assert span.counts["best_iter_frac"] == [o.best_iteration / 5 for o in want]


def test_wrapper_reraises_and_records_the_error():
    def zf_detect(H, y, c):
        raise ZeroDivisionError("boom")

    trace = tracer.Tracer()
    traced = trace.wrap(zf_detect, "baselines")
    with pytest.raises(ZeroDivisionError):
        traced(None, None, None)
    span = trace.spans[0]
    assert span.error == "ZeroDivisionError" and span.end >= span.start
    assert tracer.detector_cells(trace.spans, failed=True) == 1


def test_install_wraps_library_functions_and_restore_puts_them_back():
    def generate_channel():
        return "channel"

    generate_channel.__module__ = "isingmimo.channel"
    namespace = types.SimpleNamespace(generate_channel=generate_channel, other=len)
    trace = tracer.Tracer()
    trace.install(namespace)
    assert namespace.generate_channel is not generate_channel
    assert namespace.other is len
    assert namespace.generate_channel() == "channel"
    assert trace.layers() == {"channel"}
    assert not trace.install_one(namespace, "removed_by_a_later_change")
    trace.restore()
    assert namespace.generate_channel is generate_channel


def test_traced_sweep_writes_the_same_csv_and_counts_every_cell(tmp_path):
    plan = harness.plan_experiment(
        n=2,
        order=4,
        ebn0_list=(5.0, 10.0),
        total_bits=8,
        seed=7,
        detectors=("zf", "mmse", "ml", "bpim", "dpim"),
        messages_per_channel=2,
        replicas=3,
        iterations=4,
    )
    untraced, _ = harness.report(harness.run_ber_sweep(plan), plan, tmp_path / "a")
    trace = tracer.Tracer()
    try:
        trace.install(harness)
        with trace.span("sweep", "benchmark") as root:
            points = harness.run_ber_sweep(plan)
    finally:
        trace.restore()
    traced, _ = harness.report(points, plan, tmp_path / "b")
    assert traced.read_bytes() == untraced.read_bytes()
    assert tracer.detector_cells(trace.spans) == 2 * 2 * 5
    assert tracer.detector_cells(trace.spans, failed=True) == 0
    assert tracer.ml_not_optimal(trace.spans) == []
    m = tracer.layer_metrics(trace.spans, root)
    assert m["baselines.ml.calls"] == 4 and m["solvers.dpim.calls"] == 1
    assert m["solvers.bpim.rows_per_call"] == 4 * 3
    assert m["baselines.ml.cell_ms_p50"] == 0  # too few samples to report
    assert 0 <= m["harness.self_s"] <= root.duration
    assert set(m) <= set(run.PER_LAYER_UNITS)


def test_speed_scaling_uses_the_probes_around_each_call():
    walls = [1.0, 2.0]
    probes = [run.REFERENCE_NOMINAL_S, run.REFERENCE_NOMINAL_S, 3 * run.REFERENCE_NOMINAL_S]
    assert run.speed_scaled(walls, probes) == pytest.approx([1.0, 1.0])
