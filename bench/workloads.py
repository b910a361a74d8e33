"""The benchmark's workloads: one fixed plan each, seeded from the command line.

Every workload goes through a public entry point of ``isingmimo.harness``
(``run_ber_sweep`` or ``beta_sweep``), the calls the ``run`` and ``fit-beta``
commands make. A workload knows how to build its plan from a seed, run it,
count its cells, write its output bytes, and check that output for
properties that hold whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isingmimo.harness import beta_sweep, plan_experiment, report, run_ber_sweep
from tracer import SOLVER_DETECTORS


@dataclass(frozen=True)
class BerWorkload:
    """``run_ber_sweep`` over a fixed plan; a cell is one (channel, message,
    Eb/N0 point, detector)."""

    name: str
    why: str
    n: int
    order: int
    ebn0: tuple
    detectors: tuple
    channels: int
    messages_per_channel: int
    threads: int

    def plan(self, seed: int):
        bits = self.n * int(math.log2(self.order)) * self.messages_per_channel
        return plan_experiment(
            n=self.n,
            order=self.order,
            ebn0_list=self.ebn0,
            total_bits=bits * self.channels,
            seed=seed,
            detectors=self.detectors,
            messages_per_channel=self.messages_per_channel,
        )

    def cells(self, plan) -> int:
        return (
            plan.n_channels
            * plan.messages_per_channel
            * len(plan.ebn0_list)
            * len(plan.detectors)
        )

    def run(self, plan, threads: int):
        return run_ber_sweep(plan, threads=threads)

    def write(self, points, plan, out_dir: Path) -> Path:
        """The results CSV and manifest, as ``isingmimo run`` writes them."""
        csv_path, _ = report(points, plan, out_dir)
        return csv_path

    def problems(self, points, plan) -> list[str]:
        bits = plan.n_channels * plan.messages_per_channel * plan.bits_per_message
        found = []
        if len(points) != len(plan.detectors) * len(plan.ebn0_list):
            found.append(f"{len(points)} BER points for {len(plan.detectors)} detectors")
        for p in points:
            if p.bits != bits or not 0 <= p.errors <= bits or p.ber != p.errors / bits:
                found.append(f"inconsistent point {p}")
        return found

    def quality(self, points) -> dict:
        """Bit errors over bits, summed over the heuristic detectors."""
        mine = [p for p in points if p.detector in SOLVER_DETECTORS]
        if not mine:
            return {}
        return {"heuristic_ber": sum(p.errors for p in mine) / sum(p.bits for p in mine)}


@dataclass(frozen=True)
class FitBetaWorkload:
    """``beta_sweep`` over a noise-peak grid; a cell is one (peak, instance)
    solve."""

    name: str
    why: str
    n: int
    order: int
    paradigm: str
    grid: tuple
    instances: int
    ebn0: tuple
    threads: int = 1

    def plan(self, seed: int) -> dict:
        return dict(
            n=self.n,
            order=self.order,
            paradigm=self.paradigm,
            beta_grid=self.grid,
            n_instances=self.instances,
            ebn0_list=self.ebn0,
            seed=seed,
        )

    def cells(self, plan) -> int:
        return len(plan["beta_grid"]) * plan["n_instances"] * len(plan["ebn0_list"])

    def run(self, plan, threads: int):
        return beta_sweep(**plan)

    def write(self, result, plan, out_dir: Path) -> Path:
        """The curve in the ``fit-beta`` command's CSV format, followed by the
        fields that format leaves out, so equal bytes mean an equal result."""
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["n,order,beta_max,mean_final_energy,stderr"]
        for b, m, s in zip(result.beta_grid, result.mean_final_energy, result.stderr):
            lines.append(f"{plan['n']},{plan['order']},{b!r},{m!r},{s!r}")
        lines.append(
            f"# beta_opt={result.beta_opt!r} random_reference={result.random_reference!r}"
            f" random_reference_stderr={result.random_reference_stderr!r}"
        )
        path = out_dir / "beta_sweep.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def problems(self, result, plan) -> list[str]:
        found = []
        means = result.mean_final_energy
        if not np.all(np.isfinite(means)) or np.any(result.stderr < 0):
            found.append("non-finite mean energy or negative stderr")
        if result.beta_opt != result.beta_grid[int(np.argmin(means))]:
            found.append(f"beta_opt {result.beta_opt} is not the grid argmin")
        if not np.all(means < result.random_reference):
            found.append("a peak's mean final energy is not below the random reference")
        return found

    def quality(self, result) -> dict:
        return {"norm_energy_min": float(np.min(result.mean_final_energy))}


WORKLOADS = {
    w.name: w
    for w in (
        BerWorkload(
            name="ber-qam4-n16-x2",
            why="the paper's core comparison; solver kernels take nearly all the time,"
            " and it is the only workload that runs the process pool",
            n=16,
            order=4,
            ebn0=(4.0, 8.0, 12.0),
            detectors=("zf", "mmse", "bpim", "dpim"),
            channels=2,
            messages_per_channel=7,
            threads=2,
        ),
        BerWorkload(
            name="ber-qam16-n4-exact",
            why="no heuristic: the sphere decoder and per-cell orchestration over"
            " many small single-process cells; kernel and pool changes must not move it",
            n=4,
            order=16,
            ebn0=(6.0, 10.0, 14.0),
            detectors=("zf", "mmse", "ml"),
            channels=400,
            messages_per_channel=1,
            threads=1,
        ),
        FitBetaWorkload(
            name="fitbeta-bpsk-n16-oim",
            why="the fit-beta command: one unbatched oscillator solve per (peak,"
            " instance), each instance with its own channel",
            n=16,
            order=2,
            paradigm="oim",
            grid=(10.0, 20.0, 30.0, 40.0),
            instances=3,
            ebn0=(3.0, 6.0, 9.0),
        ),
    )
}
