"""Command-line benchmark harness.

Subcommands: ``run`` executes one experiment plan and writes a CSV plus a
reproduction manifest, ``sweep`` runs a grid of (n, order) plans, ``fit-beta``
performs the annealing-peak calibration sweep, and ``report`` re-runs the
plan stored in a manifest (byte-identical CSV for the same seed). Flags
override values from an optional JSON config file with the same keys.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .harness import (
    beta_sweep,
    fit_scaling_law,
    format_summary,
    plan_experiment,
    plan_from_manifest,
    report,
    run_ber_sweep,
)
from .solvers import PARADIGMS

log = logging.getLogger("isingmimo")

THREADS_HELP = "worker processes, each running one BLAS thread (default 1: no pool)"


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _add_plan_flags(p: argparse.ArgumentParser, grid: bool = False) -> None:
    many = " (comma-separated list)" if grid else ""
    p.add_argument("--n", help=f"antenna count{many}", default=None)
    p.add_argument("--mod", help=f"modulation order{many}", default=None)
    p.add_argument("--ebn0", help="Eb/N0 grid in dB, comma-separated", default=None)
    p.add_argument("--bits", type=int, help="total transmitted bits per plan", default=None)
    p.add_argument("--detectors", help="comma-separated detector names", default=None)
    p.add_argument("--replicas", type=int, default=None, help="heuristic replica count")
    p.add_argument("--iters", type=int, default=None, help="heuristic iteration count")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="JSON file with the same keys as the flags")


def _option_types(p: argparse.ArgumentParser) -> dict:
    """Each option's type and choices, which its --config value must meet."""
    return {a.dest: (a.type, a.choices) for a in p._actions if a.option_strings}


def _check_config_value(key: str, value, spec) -> None:
    """Reject a config value that its flag would not accept.

    An option parsed with ``type=int`` takes a JSON integer; any other option
    takes a string or a number, as written on the command line.
    """
    if spec is None or value is None:
        return
    kind, choices = spec
    if isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, (str, int, float))
    if not ok:
        wanted = "an integer" if kind is int else "a string or a number"
        raise ValueError(f"config value {key}={value!r} must be {wanted}")
    if choices is not None and value not in choices:
        raise ValueError(f"config value {key}={value!r} must be one of {tuple(choices)}")


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Config-file values overridden by any flag given on the command line."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in config.items():
            _check_config_value(key, value, args.option_types.get(key))
        merged.update(config)
    for key, value in vars(args).items():
        if key in ("command", "config", "option_types"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _require(merged: dict, *keys: str) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _check_writable(out_dir: str) -> Path:
    """Reject an output directory that cannot be created, without creating it.

    Its nearest existing ancestor must be a writable directory. The directory
    is made only when output is written, so a rejected run leaves none behind.
    """
    out = Path(out_dir)
    existing = out.absolute()
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK):
        raise ValueError(f"output directory {out} is not writable")
    return out


def _run_plan(plan, threads: int, out_dir: str, csv_name: str = "results.csv") -> None:
    out = _check_writable(out_dir)
    points = run_ber_sweep(plan, threads=threads)
    csv_path, manifest_path = report(points, plan, out, csv_name)
    print(format_summary(points))
    print(f"wrote {csv_path} and {manifest_path}")


def _plan(merged: dict, n: int, order: int):
    return plan_experiment(
        n=n,
        order=order,
        ebn0_list=_parse_floats(str(merged["ebn0"])),
        total_bits=int(merged["bits"]),
        seed=int(merged["seed"]),
        detectors=str(merged["detectors"]).split(","),
        replicas=merged.get("replicas"),
        iterations=merged.get("iters"),
    )


def _cmd_run(args: argparse.Namespace) -> None:
    merged = _merged(args, {"detectors": "mmse", "seed": 0, "threads": 1})
    _require(merged, "n", "mod", "ebn0", "bits", "out")
    plan = _plan(merged, int(merged["n"]), int(merged["mod"]))
    _run_plan(plan, int(merged["threads"]), merged["out"])


def _cmd_sweep(args: argparse.Namespace) -> None:
    merged = _merged(args, {"detectors": "mmse", "seed": 0, "threads": 1})
    _require(merged, "n", "mod", "ebn0", "bits", "out")
    for n in _parse_ints(str(merged["n"])):
        for order in _parse_ints(str(merged["mod"])):
            plan = _plan(merged, n, order)
            sub = Path(merged["out"]) / f"n{n}_m{order}"
            print(f"== n={n} order={order}")
            _run_plan(plan, int(merged["threads"]), sub)


def _cmd_fit_beta(args: argparse.Namespace) -> None:
    merged = _merged(
        args,
        {
            "seed": 0,
            "paradigm": "bpim",
            "instances": 20,
            "trials": 100,
            "iters": 100,
        },
    )
    _require(merged, "n", "mod", "beta_grid", "out")
    out = _check_writable(merged["out"])
    rows = []
    for n in _parse_ints(str(merged["n"])):
        for order in _parse_ints(str(merged["mod"])):
            result = beta_sweep(
                n=n,
                order=order,
                paradigm=merged["paradigm"],
                beta_grid=_parse_floats(str(merged["beta_grid"])),
                n_instances=int(merged["instances"]),
                n_trials=int(merged["trials"]),
                n_iterations=int(merged["iters"]),
                seed=int(merged["seed"]),
            )
            rows.append((n, order, result))
            print(f"n={n} order={order}: optimal peak {result.beta_opt:.6g}")
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "beta_sweep.csv"
    with open(curve_path, "w") as fh:
        fh.write("n,order,beta_max,mean_final_energy,stderr\n")
        for n, order, result in rows:
            for b, m, s in zip(
                result.beta_grid, result.mean_final_energy, result.stderr
            ):
                fh.write(f"{n},{order},{float(b)!r},{float(m)!r},{float(s)!r}\n")
    print(f"wrote {curve_path}")
    if len(rows) >= 3:
        try:
            fit = fit_scaling_law([(n, order, r.beta_opt) for n, order, r in rows])
            print(
                f"scaling fit ({fit.family}): coefficient {fit.coefficient:.4g}, "
                f"exponent {fit.exponent:.4g}"
            )
        except ValueError as exc:
            log.warning("scaling fit skipped: %s", exc)


def _cmd_report(args: argparse.Namespace) -> None:
    merged = _merged(args, {"threads": 1})
    _require(merged, "manifest", "out")
    plan, csv_name = plan_from_manifest(merged["manifest"])
    _run_plan(plan, int(merged["threads"]), merged["out"], csv_name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingmimo",
        description="BER benchmarks for Ising-machine MIMO detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment plan")
    _add_plan_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of (n, order) plans")
    _add_plan_flags(p_sweep, grid=True)

    p_fit = sub.add_parser("fit-beta", help="annealing-peak calibration sweep")
    p_fit.add_argument("--n", default=None, help="antenna counts (comma-separated)")
    p_fit.add_argument("--mod", default=None, help="modulation orders (comma-separated)")
    p_fit.add_argument("--paradigm", default=None, choices=tuple(PARADIGMS))
    p_fit.add_argument("--beta-grid", dest="beta_grid", default=None,
                       help="comma-separated annealing peaks")
    p_fit.add_argument("--instances", type=int, default=None,
                       help="instances per Eb/N0 value")
    p_fit.add_argument("--trials", type=int, default=None, help="trials per instance")
    p_fit.add_argument("--iters", type=int, default=None, help="iterations per trial")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--config", default=None)

    p_rep = sub.add_parser("report", help="re-run the plan stored in a manifest")
    p_rep.add_argument("--manifest", default=None, help="path to manifest.json")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p_rep.add_argument("--config", default=None)

    for p in (p_run, p_sweep, p_fit, p_rep):
        p.set_defaults(option_types=_option_types(p))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "fit-beta": _cmd_fit_beta,
        "report": _cmd_report,
    }
    try:
        handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
