"""Golden bytes: small seeded BER plans covering every detector, and small
annealing-peak calibration grids.

Each plan runs with few replicas and iterations, so the heuristics make
search errors and their error counts depend on every replica stream. A
change that alters RNG streams, kernel arithmetic or reporting changes a
hash here; such a change must say so and record the new hashes on purpose.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from isingmimo import (
    beta_sweep,
    build_constellation,
    channel_instances,
    default_parameters,
    plan_experiment,
    report,
    run_ber_sweep,
    solve_many,
)
from isingmimo import harness
from isingmimo.harness import plan_from_manifest

GOLDENS = {
    "bpsk-n8": (
        dict(
            n=8,
            order=2,
            ebn0_list=(0.0, 5.0, 10.0),
            total_bits=8 * 4 * 6,
            seed=11,
            detectors=("bpim", "oim"),
            messages_per_channel=4,
            replicas=3,
            iterations=12,
        ),
        "3aa05fb47807abfa68027ee34621439e11a7f6b584e6910e38617211c4ec78f1",
    ),
    "qam4-n6": (
        dict(
            n=6,
            order=4,
            ebn0_list=(2.0, 8.0, 14.0),
            total_bits=12 * 4 * 6,
            seed=12,
            detectors=("zf", "mmse", "bpim", "dpim"),
            messages_per_channel=4,
            replicas=3,
            iterations=12,
        ),
        "e833b8a7d7a6205c4625322043a9d6dab03b79e563d4aafe680fa71db0d9c5b1",
    ),
    "qam16-n4": (
        dict(
            n=4,
            order=16,
            ebn0_list=(8.0, 14.0, 20.0),
            total_bits=16 * 3 * 6,
            seed=13,
            detectors=("dpim", "ml"),
            messages_per_channel=3,
            replicas=3,
            iterations=12,
        ),
        "bb4c04ce52c7fbf4df54e1c1f8a63e55433f9b1c1d0d92c5173648784094e6a2",
    ),
    # bpim above 4-QAM: two spins per axis, at weights 2 and 1.
    "qam16-n3-bpim": (
        dict(
            n=3,
            order=16,
            ebn0_list=(6.0, 12.0, 18.0),
            total_bits=12 * 3 * 4,
            seed=14,
            detectors=("bpim", "mmse"),
            messages_per_channel=3,
            replicas=3,
            iterations=12,
        ),
        "62881d52617260bd5780fd0cfd051a6739fc9c5923e8e357f996caa9834d9369",
    ),
    # ZF and MMSE on the one-axis alphabet (a one-level imaginary axis) and
    # on eight levels per axis.
    "bpsk-n6-linear": (
        dict(
            n=6,
            order=2,
            ebn0_list=(0.0, 6.0, 12.0),
            total_bits=6 * 4 * 6,
            seed=15,
            detectors=("zf", "mmse"),
            messages_per_channel=4,
        ),
        "7bf8e3d814b20b539b329473670e8509d6d8bc0e06686f93dc8a036977b0f430",
    ),
    "qam64-n3-linear": (
        dict(
            n=3,
            order=64,
            ebn0_list=(10.0, 18.0, 26.0),
            total_bits=18 * 3 * 6,
            seed=16,
            detectors=("zf", "mmse"),
            messages_per_channel=3,
        ),
        "464b410239f2f63fff1cadef376b7e0ad0bc0b6bd8c931272120f09270dd50a8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_report_csv_matches_golden_hash(name, tmp_path):
    kwargs, digest = GOLDENS[name]
    plan = plan_experiment(**kwargs)
    csv_path, _ = report(run_ber_sweep(plan, threads=1), plan, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


# sha256 of each golden plan's manifest.json, byte for byte as the first
# release of the v1 format wrote it (later plans: as the v1 writer wrote
# them when each plan was added): a manifest written earlier still
# reproduces its run.
MANIFEST_GOLDENS = {
    "bpsk-n8": "e3fecc4f4ed9c87da53c4c29c6afe89b687013eb803be764dba691b9ff9f3c9c",
    "qam4-n6": "cc3ab5c081614adf817129619511366215a381f32c914c2eef3f9716913dd7e5",
    "qam16-n4": "3e9cbd8bcf65bf84e3346c28c29429047a067553f61f27a8626ea967136c08b5",
    "qam16-n3-bpim": "0e89e7f2f4b499e857b08763f70a4fb7f34ae0fdbfb94cfc54bc59b9ec009ed7",
    "bpsk-n6-linear": "33d845ab120068ed42215e063e2a6561f5ac063d1ad02fbd33e8708680455e05",
    "qam64-n3-linear": "1609f70b3069a8b58212d30543b8daf5d9925156efba0b1a77a96d4c3d7e74d5",
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_manifest_matches_golden_hash(name, tmp_path):
    kwargs, _ = GOLDENS[name]
    plan = plan_experiment(**kwargs)
    _, path = report([], plan, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MANIFEST_GOLDENS[name]
    assert plan_from_manifest(path) == plan


def test_pool_run_matches_golden_hash(tmp_path):
    kwargs, digest = GOLDENS["qam4-n6"]
    plan = plan_experiment(**kwargs)
    assert plan.n_channels > 1
    csv_path, _ = report(run_ber_sweep(plan, threads=2), plan, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


# beta_sweep grids: the only check on the fit-beta numbers, including the
# random-state reference that normalises every energy.
BETA_GOLDENS = {
    "dpim-qam16-n3": (
        dict(
            n=3,
            order=16,
            paradigm="dpim",
            beta_grid=(0.1, 0.4, 1.2),
            n_instances=2,
            n_trials=4,
            n_iterations=10,
            ebn0_list=(4.0, 12.0),
            seed=21,
        ),
        "4a1c6d95ab183559b8c4d9898c41e1a09890eee89dc39d82997e863f11e77ebb",
    ),
    "bpim-qam4-n4": (
        dict(
            n=4,
            order=4,
            paradigm="bpim",
            beta_grid=(0.2, 0.8),
            n_instances=2,
            n_trials=4,
            n_iterations=10,
            ebn0_list=(4.0, 12.0),
            seed=22,
        ),
        "9a3cca7beb7a54eb9c587b66219321fb9a884d16ed41442e45da0dc7b71be8f7",
    ),
    "bpim-qam16-n3": (
        dict(
            n=3,
            order=16,
            paradigm="bpim",
            beta_grid=(0.1, 0.4, 1.2),
            n_instances=2,
            n_trials=4,
            n_iterations=10,
            ebn0_list=(4.0, 12.0),
            seed=23,
        ),
        "4d766c56416f9aa229fed17f01ee95b04f2b47b7fe05e118244133d5efe7b07f",
    ),
    # fit-beta's oscillator path; the grid is read as peak noise levels.
    "oim-bpsk-n6": (
        dict(
            n=6,
            order=2,
            paradigm="oim",
            beta_grid=(10.0, 30.0),
            n_instances=2,
            n_trials=20,
            n_iterations=30,
            ebn0_list=(4.0, 12.0),
            seed=24,
        ),
        "bef1824ac7a334430b9ec99e7067da3404b88bc67660634323b3abf8f88095c9",
    ),
}


def beta_sweep_digest(result) -> str:
    """sha256 of the repr of every field; arrays as lists, so every float
    is written in full."""
    lines = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        lines.append(f"{f.name}={value!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BETA_GOLDENS))
def test_beta_sweep_matches_golden_hash(name):
    kwargs, digest = BETA_GOLDENS[name]
    assert beta_sweep_digest(beta_sweep(**kwargs)) == digest


@pytest.mark.parametrize("name", sorted(BETA_GOLDENS))
def test_pool_beta_sweep_matches_golden_hash(name):
    kwargs, digest = BETA_GOLDENS[name]
    assert beta_sweep_digest(beta_sweep(**kwargs, threads=2)) == digest


# One channel of the ``ber-qam4-n16-x2`` benchmark workload, solved at the
# width the benchmark solves it: 7 messages x 3 Eb/N0 points = 21 models x 64
# replicas = 1,344 rows per kernel call. A product's last bits can depend on
# the width of its stack, and the plans above solve narrower stacks, so only
# this pins the kernels' bits at that width: sha256 of each model's best state
# and best iteration, at the default peak and 100 sweeps.
WIDTH_GOLDENS = {
    "bpim": "563a338140585fe4cdd37ba472b51319f87675be9dfbed834cb7f87586124e27",
    "dpim": "d62399b89c8763a99ba63e93d3495780f996c474bdac156d5c0476b1025e93e7",
}


@pytest.mark.parametrize("paradigm", sorted(WIDTH_GOLDENS))
def test_benchmark_width_solve_matches_golden_hash(paradigm):
    c = build_constellation(4)
    cells = channel_instances(c, 16, 35, 0, range(7), enumerate((4.0, 8.0, 12.0)))
    models, _ = harness._paradigm_models(
        paradigm, cells[0][0].channel, [inst.rx_vector for inst, _ in cells], c
    )
    cfg = default_parameters(paradigm, 16, 4)
    assert len(models) * cfg.replicas == 1344
    digest = hashlib.sha256()
    for outcome in solve_many(paradigm, models, cfg, [3500 + k for k in range(len(models))]):
        digest.update(outcome.best_state.tobytes())
        digest.update(str(outcome.best_iteration).encode())
    assert digest.hexdigest() == WIDTH_GOLDENS[paradigm]
