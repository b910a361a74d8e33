"""Command-line interface: flags, config files, exit codes, reproduction."""

import functools
import json
import math
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import isingmimo
from isingmimo import cli
from isingmimo.cli import main
from isingmimo.harness import BetaSweepResult, plan_experiment
from isingmimo.solvers import PARADIGMS, default_parameters


def run_cli(*args):
    return main(list(args))


class TestRun:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "run",
            "--n", "4", "--mod", "4", "--ebn0", "8,12", "--bits", "448",
            "--detectors", "mmse,zf", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert "mmse" in capsys.readouterr().out

    def test_missing_required_flag_fails(self, tmp_path, capsys):
        code = run_cli("run", "--n", "4", "--mod", "4", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "missing required" in capsys.readouterr().err

    def test_invalid_bits_fails_with_diagnostic(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--n", "4", "--mod", "4", "--ebn0", "8", "--bits", "450",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "448" in capsys.readouterr().err  # nearest valid budget

    def test_zero_antennas_fails_without_traceback(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--n", "0", "--mod", "4", "--ebn0", "8", "--bits", "448",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_zero_threads_fails_without_traceback(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--n", "4", "--mod", "4", "--ebn0", "8", "--bits", "896",
            "--threads", "0", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threads" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_ml_past_the_float_range_fails_without_traceback(self, tmp_path, capsys):
        # The budget check raised OverflowError on 2.0**1024.
        code = run_cli(
            "run",
            "--n", "1024", "--mod", "2", "--ebn0", "5", "--bits", "14336",
            "--detectors", "ml", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "budget" in err
        assert not (tmp_path / "x").exists()

    def test_unwritable_output_rejected_before_compute(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("occupied")
        code = run_cli(
            "run",
            "--n", "4", "--mod", "4", "--ebn0", "8", "--bits", "448",
            "--out", str(blocker / "sub"),
        )
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--replicas", "0"), ("--iters", "-3")])
    def test_count_below_one_fails_without_a_heuristic(self, flag, value, tmp_path, capsys):
        # mmse reads neither count, but the manifest would record it.
        code = run_cli(
            "run",
            "--n", "2", "--mod", "4", "--ebn0", "5", "--bits", "56",
            "--detectors", "mmse", flag, value, "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(
            json.dumps(
                {
                    "n": 4,
                    "mod": 4,
                    "ebn0": "8",
                    "bits": 448,
                    "detectors": "mmse",
                    "seed": 5,
                    "out": str(tmp_path / "from_config"),
                }
            )
        )
        out = tmp_path / "cli_wins"
        code = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert (out / "results.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["plan"]["seed"] == 5  # config value survived

    @pytest.mark.parametrize(
        "config",
        [
            {"iters": "x"},
            {"seed": 1.5},
            {"replicas": True},
            {"ebn0": [9]},
            {"config": "other.json"},
            {"iters": None},
        ],
    )
    def test_config_value_of_wrong_type_fails(self, config, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code = run_cli(
            "run",
            "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
            "--detectors", "bpim", "--config", str(cfg), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        key = next(iter(config))
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"iter": 5}, "--iter=5"),  # an abbreviation of --iters
            ({"n": 4.5}, "--n"),
            ({"mod": "4,16"}, "--mod"),
        ],
    )
    def test_config_entry_its_flag_would_reject_fails(self, config, named, tmp_path, capsys):
        # Each entry is parsed as its flag: an unknown key or a value that the
        # flag's type rejects fails, rather than being dropped or truncated.
        flags = {"n": "4", "mod": "4", "ebn0": "9", "bits": "448", "detectors": "bpim"}
        given = [tok for k, v in flags.items() if k not in config for tok in (f"--{k}", v)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code = run_cli("run", *given, "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "extra",
        [("--iters", "x"), ("--iter", "5"), ("--n", "4.5"), ("--ebn0", "-3,0"), ("--bogus",)],
    )
    def test_rejected_flag_exits_1(self, extra, tmp_path, capsys):
        code = run_cli(
            "run",
            "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
            *extra, "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and extra[0] in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "config,key,planned",
        [
            ({"ebn0": "-3,0"}, "ebn0_list", [-3.0, 0.0]),  # not read as an option
            ({"ebn0": 9}, "ebn0_list", [9.0]),
            ({"detectors": "mmse,zf"}, "detectors", ["mmse", "zf"]),
            ({"detectors": "bpim", "iters": 3}, "iterations", 3),
        ],
    )
    def test_config_values_read_as_on_the_command_line(self, config, key, planned, tmp_path):
        flags = {"n": "4", "mod": "4", "ebn0": "9", "bits": "448"}
        given = [tok for k, v in flags.items() if k not in config for tok in (f"--{k}", v)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", *given, "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["plan"][key] == planned

    def test_fit_beta_config_paradigm_must_be_a_choice(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"paradigm": "sa"}))
        code = run_cli(
            "fit-beta",
            "--n", "2", "--mod", "4", "--beta-grid", "0.5",
            "--config", str(cfg), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "paradigm" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestReportCommand:
    def test_reproduces_byte_identical_csv(self, tmp_path):
        first = tmp_path / "first"
        assert (
            run_cli(
                "run",
                "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "896",
                "--detectors", "mmse,dpim", "--seed", "8", "--out", str(first),
            )
            == 0
        )
        second = tmp_path / "second"
        assert (
            run_cli(
                "report",
                "--manifest", str(first / "manifest.json"),
                "--out", str(second), "--threads", "2",
            )
            == 0
        )
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()


    @pytest.mark.parametrize(
        "csv_name",
        [
            "../escaped.csv",
            "{tmp}/escaped.csv",
            "sub/results.csv",
            "",
            ".",
            "..",
            "manifest.json",
            "other.csv",
        ],
    )
    def test_csv_name_must_be_a_plain_file_name(self, csv_name, tmp_path, capsys):
        # Only results.csv: some other names would write outside --out, or
        # over the manifest.
        first = tmp_path / "first"
        assert (
            run_cli(
                "run",
                "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
                "--seed", "8", "--out", str(first),
            )
            == 0
        )
        manifest_path = first / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["csv"] = csv_name.format(tmp=tmp_path)
        manifest_path.write_text(json.dumps(manifest))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        code = run_cli(
            "report", "--manifest", str(manifest_path), "--out", str(tmp_path / "b" / "c")
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("missing", [None, "plan", "seed", "iterations"])
    def test_manifest_lacking_a_key_fails_naming_it(self, missing, tmp_path, capsys):
        manifest = {"format": "isingmimo-manifest v1"}
        if missing is not None:
            first = tmp_path / "first"
            assert (
                run_cli(
                    "run",
                    "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
                    "--seed", "8", "--out", str(first),
                )
                == 0
            )
            manifest = json.loads((first / "manifest.json").read_text())
            if missing == "plan":
                del manifest["plan"]
            else:
                del manifest["plan"][missing]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("report", "--manifest", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (missing or "plan") in err
        assert not (tmp_path / "o").exists()


    def test_manifest_with_an_unknown_plan_key_fails_naming_it(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert (
            run_cli(
                "run",
                "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
                "--seed", "8", "--out", str(first),
            )
            == 0
        )
        path = first / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"]["replica"] = 5
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("report", "--manifest", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "replica" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [("total_bits", 448.0), ("seed", 1.5), ("n", 4.5)])
    def test_edited_manifest_with_a_non_int_count_fails(self, key, value, tmp_path, capsys):
        first = tmp_path / "first"
        assert (
            run_cli(
                "run",
                "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
                "--seed", "8", "--out", str(first),
            )
            == 0
        )
        path = first / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"][key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("report", "--manifest", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "key, value",
        [
            ("ebn0_list", 5),
            ("ebn0_list", [None]),
            ("ebn0_list", [[1]]),
            ("detectors", 5),
            ("detectors", []),
        ],
    )
    def test_edited_manifest_with_a_malformed_list_fails(self, key, value, tmp_path, capsys):
        # Each ended in a TypeError traceback, but for no detectors, which
        # planned a run that detects nothing.
        plan = {**asdict(plan_experiment(4, 4, [9.0], 448, seed=8)), key: value}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "isingmimo-manifest v1", "plan": plan}))
        code = run_cli("report", "--manifest", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and key in err
        assert not (tmp_path / "o").exists()

    def test_edited_manifest_with_a_negative_seed_fails(self, tmp_path, capsys, monkeypatch):
        # The seed was planned, then stopped the run at its first SeedSequence.
        first = tmp_path / "first"
        assert (
            run_cli(
                "run",
                "--n", "4", "--mod", "4", "--ebn0", "9", "--bits", "448",
                "--seed", "8", "--out", str(first),
            )
            == 0
        )
        path = first / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["plan"]["seed"] = -1
        path.write_text(json.dumps(manifest))
        runs = []
        monkeypatch.setattr(cli, "run_ber_sweep", lambda *a, **k: runs.append(a))
        capsys.readouterr()
        code = run_cli("report", "--manifest", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be non-negative" in err
        assert runs == []
        assert not (tmp_path / "o").exists()


class TestSweepCommand:
    def test_grid_of_plans(self, tmp_path):
        out = tmp_path / "grid"
        code = run_cli(
            "sweep",
            "--n", "2,4", "--mod", "4", "--ebn0", "10", "--bits", "448",
            "--detectors", "mmse", "--out", str(out),
        )
        assert code == 0
        assert (out / "n2_m4" / "results.csv").exists()
        assert (out / "n4_m4" / "results.csv").exists()

    def test_every_plan_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        # 112 bits split into 14 messages of n=4 but not of n=5: the n=4 plan
        # must not run and write its output before the n=5 plan is refused.
        runs = []
        monkeypatch.setattr(cli, "run_ber_sweep", lambda *a, **k: runs.append(a))
        out = tmp_path / "s1"
        code = run_cli(
            "sweep", "--n", "4,5", "--mod", "4", "--ebn0", "5", "--bits", "112",
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert runs == []
        assert not out.exists()


class TestFitBetaCommand:
    def test_writes_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "beta"
        code = run_cli(
            "fit-beta",
            "--n", "4", "--mod", "4", "--paradigm", "bpim",
            "--beta-grid", "0.2,3.2,1000",
            "--instances", "2", "--trials", "8", "--iters", "20",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = (out / "beta_sweep.csv").read_text().splitlines()
        assert lines[0] == "n,order,beta_max,mean_final_energy,stderr"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            assert len(fields) == 5
        assert "optimal peak" in capsys.readouterr().out

    def test_edge_minimum_exits_1_after_writing(self, tmp_path, capsys):
        # bpim at n=4: the lowest mean on 0.2, 0.8, 3.2 lies at 3.2, the
        # grid's last peak, so it is no optimum.
        out = tmp_path / "beta"
        code = run_cli(
            "fit-beta",
            "--n", "4", "--mod", "4", "--paradigm", "bpim",
            "--beta-grid", "0.2,0.8,3.2",
            "--instances", "2", "--trials", "8", "--iters", "20",
            "--seed", "2", "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "n=4 order=4: lowest mean at the grid's edge, peak 3.2" in captured.out
        assert captured.err.startswith("error: ") and "edge for n=4 order=4:" in captured.err
        assert len((out / "beta_sweep.csv").read_text().splitlines()) == 4

    def test_edge_sizes_named_and_fit_skipped(self, tmp_path, capsys, monkeypatch):
        # Of three sizes, the two whose lowest mean lies at an edge are
        # named, every curve is written and no fit is made.
        def sweep(n, order, beta_grid, **settings):
            grid = np.array(beta_grid)
            means = (grid - grid[1]) ** 2 if n == 3 else grid
            return BetaSweepResult(grid, means, grid, float(grid[np.argmin(means)]), 0.0, 0.0)

        fits = []
        monkeypatch.setattr(cli, "beta_sweep", sweep)
        monkeypatch.setattr(cli, "fit_scaling_law", fits.append)
        out = tmp_path / "beta"
        code = run_cli(
            "fit-beta", "--n", "2,3,4", "--mod", "4", "--beta-grid", "0.5,1,2", "--out", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "edge for n=2 order=4, n=4 order=4:" in err and "scaling fit skipped" in err
        assert fits == []
        assert len((out / "beta_sweep.csv").read_text().splitlines()) == 1 + 3 * 3

    def test_three_sizes_are_fitted(self, tmp_path, capsys, caplog):
        # The sizes and orders the command passes to the fit are plain ints.
        code = run_cli(
            "fit-beta",
            "--n", "2,3,4", "--mod", "4", "--paradigm", "dpim", "--beta-grid", "0.001,0.5,2,8",
            "--instances", "1", "--trials", "2", "--iters", "2",
            "--out", str(tmp_path / "beta"),
        )
        assert code == 0
        assert "scaling fit (qam)" in capsys.readouterr().out
        assert "scaling fit skipped" not in caplog.text

    @pytest.mark.parametrize("key", ["beta_grid", "beta-grid"])
    def test_config_key_takes_underscore_or_dash(self, key, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: "0.5,5,1000", "paradigm": "dpim"}))
        out = tmp_path / "beta"
        code = run_cli(
            "fit-beta",
            "--n", "2", "--mod", "4", "--instances", "1", "--trials", "2", "--iters", "2",
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 0
        lines = (out / "beta_sweep.csv").read_text().splitlines()
        assert [float(line.split(",")[2]) for line in lines[1:]] == [0.5, 5.0, 1000.0]

    @pytest.mark.parametrize("flag", ["--instances", "--trials", "--iters"])
    def test_invalid_count_leaves_no_output_directory(self, flag, tmp_path, capsys):
        args = {"--instances": "1", "--trials": "2", "--iters": "2", flag: "0"}
        code = run_cli(
            "fit-beta",
            "--n", "2", "--mod", "4", "--beta-grid", "0.5",
            *[v for item in args.items() for v in item],
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x").exists()

    def test_zero_threads_fails_without_traceback(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "beta_sweep", lambda *a, **k: solves.append(a))
        code = run_cli(
            "fit-beta",
            "--n", "2", "--mod", "4", "--beta-grid", "0.5,1", "--threads", "0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "threads" in err
        assert solves == []
        assert not (tmp_path / "x").exists()

    def test_every_pair_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # dpim refuses BPSK: the (2, 4) sweep must not run before (2, 2) is refused.
        solves = []
        monkeypatch.setattr(cli, "beta_sweep", lambda *a, **k: solves.append(a))
        out = tmp_path / "beta"
        code = run_cli(
            "fit-beta",
            "--n", "2,3", "--mod", "4,2", "--paradigm", "dpim", "--beta-grid", "0.5,1",
            "--instances", "1", "--trials", "2", "--iters", "2", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert solves == []
        assert not out.exists()

    def test_invalid_order_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # Order 8 was refused only after the order-2 sweep had run.
        solves = []
        monkeypatch.setattr(cli, "beta_sweep", lambda *a, **k: solves.append(a))
        out = tmp_path / "o"
        code = run_cli(
            "fit-beta",
            "--n", "4", "--mod", "2,8", "--paradigm", "bpim", "--beta-grid", "0.5,1",
            "--instances", "1", "--trials", "4", "--iters", "5", "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "modulation order" in captured.err
        assert "optimal peak" not in captured.out
        assert solves == []
        assert not out.exists()

    def test_infinite_peak_exits_before_writing(self, tmp_path, capsys):
        out = tmp_path / "beta"
        code = run_cli(
            "fit-beta",
            "--n", "2", "--mod", "2", "--paradigm", "oim", "--beta-grid", "inf,10",
            "--instances", "1", "--trials", "2", "--iters", "2", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite peak" in err
        assert not (out / "beta_sweep.csv").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--n", "4", "--mod", "4", "--ebn0", "6,6", "--bits", "224",
          "--detectors", "mmse,bpim"], "Eb/N0 value 6.0"),
        (["sweep", "--n", "2,2", "--mod", "4", "--ebn0", "6", "--bits", "224"], "value 2"),
        (["sweep", "--n", "2", "--mod", "4,16,4", "--ebn0", "6", "--bits", "448"], "value 4"),
        (["fit-beta", "--n", "4", "--mod", "4", "--beta-grid", "0.5,0.5,1"], "peak 0.5"),
        (["fit-beta", "--n", "3,3,4", "--mod", "4", "--beta-grid", "0.5,1"], "value 3"),
    ],
)
def test_repeated_grid_value_fails_naming_it(argv, named, tmp_path, capsys, monkeypatch):
    # Seeds are keyed by a value's position, so a repeat wrote two different
    # rows under one value, or ran one plan twice into one directory.
    runs = []
    monkeypatch.setattr(cli, "run_ber_sweep", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(cli, "beta_sweep", lambda *a, **k: runs.append(a))
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{named} is named more than once" in err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, ebn0",
    [
        (["run", "--n", "2", "--mod", "4", "--ebn0", "4000", "--bits", "56"], "4000.0"),
        (["run", "--n", "2", "--mod", "4", "--ebn0=-4000", "--bits", "56"], "-4000.0"),
        (["sweep", "--n", "2", "--mod", "2,4", "--ebn0=5,-3500", "--bits", "56"], "-3500.0"),
    ],
)
def test_ebn0_without_usable_noise_fails_in_one_line(argv, ebn0, tmp_path, capsys, monkeypatch):
    # 4000 dB ended in an OverflowError traceback, and -4000 dB in a
    # divide-by-zero warning and then an error at the first cell.
    runs = []
    monkeypatch.setattr(cli, "run_ber_sweep", lambda *a, **k: runs.append(a))
    out = tmp_path / "D"
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: Eb/N0 of {ebn0} dB gives no usable noise variance\n"
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, empty",
    [
        ("sweep", ["--mod", "4", "--ebn0", "5", "--bits", "112"], "--n="),
        ("sweep", ["--n", "4", "--ebn0", "5", "--bits", "112"], "--mod="),
        ("fit-beta", ["--mod", "4", "--beta-grid", "0.5,1"], "--n="),
        ("fit-beta", ["--n", "2", "--mod", "4"], "--beta-grid="),
    ],
)
def test_empty_list_flag_fails(command, flags, empty, tmp_path, capsys):
    # An empty list ran nothing and exited 0, or wrote a header-only CSV.
    out = tmp_path / "x"
    assert run_cli(command, *flags, empty, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and empty.rstrip("=") in err and "Traceback" not in err
    assert not out.exists()


# Modulation orders each solver supports, out of BPSK (2) and 4-QAM (4).
SUPPORTED_ORDERS = {"bpim": (2, 4), "dpim": (4,), "oim": (2,)}


@pytest.mark.parametrize("paradigm", sorted(PARADIGMS))
def test_registry_names_accepted_and_orders_checked_alike(paradigm, tmp_path):
    assert set(SUPPORTED_ORDERS) == set(PARADIGMS)
    for order in (2, 4):
        plan = functools.partial(
            plan_experiment, 2, order, [10.0], 2 * int(math.log2(order)), seed=1,
            detectors=(paradigm,), messages_per_channel=1,
        )
        if order in SUPPORTED_ORDERS[paradigm]:
            default_parameters(paradigm, 2, order)
            plan()
            code = run_cli(
                "fit-beta",
                "--n", "2", "--mod", str(order), "--paradigm", paradigm,
                "--beta-grid", "0.5,5,1000", "--instances", "1", "--trials", "2",
                "--iters", "2", "--out", str(tmp_path / f"m{order}"),
            )
            assert code == 0
        else:
            with pytest.raises(ValueError) as planned:
                plan()
            with pytest.raises(ValueError) as defaults:
                default_parameters(paradigm, 2, order)
            assert str(planned.value) == str(defaults.value)


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # The library runs on numpy alone: with scipy blocked, a tiny run and a
    # tiny fit-beta both exit 0.
    src = str(Path(isingmimo.__file__).resolve().parent.parent)
    run = ["run", "--n", "2", "--mod", "4", "--ebn0", "10", "--bits", "56",
           "--detectors", "mmse,bpim", "--replicas", "2", "--iters", "2",
           "--out", str(tmp_path / "run")]
    fit = ["fit-beta", "--n", "2", "--mod", "4", "--beta-grid", "0.5,5,1000",
           "--instances", "1", "--trials", "2", "--iters", "2",
           "--out", str(tmp_path / "fit")]
    code = (
        f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {src!r}); "
        f"from isingmimo.cli import main; print([main({run!r}), main({fit!r})])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0]", proc.stderr
    assert (tmp_path / "run" / "results.csv").exists()
    assert (tmp_path / "fit" / "beta_sweep.csv").exists()
