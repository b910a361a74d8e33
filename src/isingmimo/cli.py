"""Command-line benchmark harness.

Subcommands: ``run`` executes one experiment plan and writes a CSV plus a
reproduction manifest, ``sweep`` runs a grid of (n, order) plans, ``fit-beta``
performs the annealing-peak calibration sweep, and ``report`` re-runs the
plan stored in a manifest (byte-identical CSV for the same seed). ``fit-beta``
writes its curves, then exits 1 without a scaling fit, naming each (n, order),
when any size's lowest mean lies at the grid's first or last peak.

``--config`` names a JSON object of option values. Its keys are the flag
names, with ``_`` in place of ``-`` where it suits, and must match a flag of
the command exactly; its values are strings or numbers written as on the
command line (``"ebn0": "0,5,10"``). Each entry is parsed as the token
``--key=value`` ahead of the command line, so both meet the same checks and a
flag given on the command line wins. Every rejected invocation, whether of a
flag, a config entry or the plan, prints ``error: ...`` and exits 1.
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
    plan_beta_sweep,
    plan_experiment,
    plan_from_manifest,
    report,
    run_ber_sweep,
)
from .solvers import PARADIGMS

log = logging.getLogger("isingmimo")

THREADS_HELP = (
    "worker processes, each running one BLAS thread (default 1: no pool); they take "
    "whole channels (run, sweep, report) or whole instances (fit-beta), so a count "
    "above that number adds nothing and a one-channel plan runs on one core"
)
CONFIG_HELP = (
    "JSON file of flag values: keys are flag names (_ may stand for -), matched "
    "exactly; values are written as on the command line; flags on the command line win"
)


class _Parser(argparse.ArgumentParser):
    """Options matched exactly; a rejected invocation raises ValueError."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("need at least one value")
    return values


def int_list(text: str) -> list[int]:
    """A grid of sizes or orders; a repeat would run a plan twice."""
    values = _nonempty([int(v) for v in text.split(",") if v != ""])
    for idx, v in enumerate(values):
        if v in values[:idx]:
            raise argparse.ArgumentTypeError(f"value {v} is named more than once")
    return values


def float_list(text: str) -> list[float]:
    return _nonempty([float(v) for v in text.split(",") if v != ""])


def name_list(text: str) -> list[str]:
    return text.split(",")


def _add_plan_flags(p: argparse.ArgumentParser, grid: bool = False) -> None:
    many = " (comma-separated list)" if grid else ""
    size = int_list if grid else int
    p.add_argument("--n", type=size, help=f"antenna count{many}")
    p.add_argument("--mod", type=size, help=f"modulation order{many}")
    p.add_argument("--ebn0", type=float_list,
                   help="Eb/N0 grid in dB, comma-separated; a list that starts "
                   "with a negative value is written --ebn0=-3,0")
    p.add_argument("--bits", type=int, help="total transmitted bits per plan")
    p.add_argument("--detectors", type=name_list, default=["mmse"],
                   help="comma-separated detector names (default mmse)")
    p.add_argument("--replicas", type=int, help="heuristic replica count")
    p.add_argument("--iters", type=int, help="heuristic iteration count")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help=CONFIG_HELP)


def _config_tokens(path: str) -> list[str]:
    """The entries of a JSON config file as ``--key=value`` tokens.

    The ``=`` form keeps a value such as ``-3,0`` from reading as an option.
    """
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    tokens = []
    for key, value in config.items():
        if key == "config":
            raise ValueError(f"{path}: a config file cannot name another config")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config value {key}={value!r} must be a string or a number")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; the tokens of its ``--config`` file go just after the
    command, so the same checks apply to both and a flag overrides the file."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args([argv[0], *_config_tokens(args.config), *argv[1:]])


def _require(args: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(args, k) is None]
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


def _run_plan(plan, threads: int, out_dir: str) -> None:
    out = _check_writable(out_dir)
    points = run_ber_sweep(plan, threads=threads)
    csv_path, manifest_path = report(points, plan, out)
    print(format_summary(points))
    print(f"wrote {csv_path} and {manifest_path}")


def _plan(args: argparse.Namespace, n: int, order: int):
    return plan_experiment(
        n=n,
        order=order,
        ebn0_list=args.ebn0,
        total_bits=args.bits,
        seed=args.seed,
        detectors=args.detectors,
        replicas=args.replicas,
        iterations=args.iters,
    )


def _cmd_run(args: argparse.Namespace) -> None:
    _require(args, "n", "mod", "ebn0", "bits", "out")
    _run_plan(_plan(args, args.n, args.mod), args.threads, args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    _require(args, "n", "mod", "ebn0", "bits", "out")
    # Every plan is checked before the first one runs.
    plans = [_plan(args, n, order) for n in args.n for order in args.mod]
    for plan in plans:
        print(f"== n={plan.n} order={plan.order}")
        _run_plan(plan, args.threads, Path(args.out) / f"n{plan.n}_m{plan.order}")


def _cmd_fit_beta(args: argparse.Namespace) -> None:
    _require(args, "n", "mod", "beta_grid", "out")
    out = _check_writable(args.out)
    pairs = [(n, order) for n in args.n for order in args.mod]
    settings = dict(
        paradigm=args.paradigm,
        beta_grid=args.beta_grid,
        n_instances=args.instances,
        n_trials=args.trials,
        n_iterations=args.iters,
        seed=args.seed,
        threads=args.threads,
    )
    # Every pair is checked before the first solve.
    for n, order in pairs:
        plan_beta_sweep(n, order, **settings)
    rows = []
    for n, order in pairs:
        result = beta_sweep(n, order, **settings)
        rows.append((n, order, result))
        found = "lowest mean at the grid's edge, peak" if result.at_edge else "optimal peak"
        print(f"n={n} order={order}: {found} {result.beta_opt:.6g}")
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
    edges = [f"n={n} order={order}" for n, order, result in rows if result.at_edge]
    if edges:
        raise ValueError(
            f"the lowest mean is at the grid's edge for {', '.join(edges)}: not an optimum;"
            " widen the grid there (scaling fit skipped)"
        )
    if len(rows) >= 3:
        try:
            fit = fit_scaling_law(rows)
            print(
                f"scaling fit ({fit.family}): coefficient {fit.coefficient:.4g}, "
                f"exponent {fit.exponent:.4g}"
            )
        except ValueError as exc:
            log.warning("scaling fit skipped: %s", exc)


def _cmd_report(args: argparse.Namespace) -> None:
    _require(args, "manifest", "out")
    _run_plan(plan_from_manifest(args.manifest), args.threads, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isingmimo",
        description="BER benchmarks for Ising-machine MIMO detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment plan")
    _add_plan_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of (n, order) plans")
    _add_plan_flags(p_sweep, grid=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fit = sub.add_parser("fit-beta", help="annealing-peak calibration sweep")
    p_fit.add_argument("--n", type=int_list, help="antenna counts (comma-separated)")
    p_fit.add_argument("--mod", type=int_list, help="modulation orders (comma-separated)")
    p_fit.add_argument("--paradigm", default="bpim", choices=tuple(PARADIGMS))
    p_fit.add_argument("--beta-grid", type=float_list, help="comma-separated annealing peaks")
    p_fit.add_argument("--instances", type=int, default=20, help="instances per Eb/N0 value")
    p_fit.add_argument("--trials", type=int, default=100, help="trials per instance")
    p_fit.add_argument("--iters", type=int, default=100, help="iterations per trial")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_fit.add_argument("--out")
    p_fit.add_argument("--config", help=CONFIG_HELP)
    p_fit.set_defaults(handler=_cmd_fit_beta)

    p_rep = sub.add_parser("report", help="re-run the plan stored in a manifest")
    p_rep.add_argument("--manifest", help="path to manifest.json")
    p_rep.add_argument("--out")
    p_rep.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_rep.add_argument("--config", help=CONFIG_HELP)
    p_rep.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(build_parser(), argv)
        args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
