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

from isingmimo import beta_sweep, plan_experiment, report, run_ber_sweep
from isingmimo.harness import plan_from_manifest, write_manifest

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
        "289f37365a6846c1ff82afe70af2291b0e095df428efe815fd9b92af0ae7b56f",
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
        "eedacbb8a9f1398a53db6672ef8c1f4c30390a1d059561204defe59feb3166f6",
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
        "27f03b00542ab0f288412ffb6ca37543888437bdc22dc8dec8322b8d376e222b",
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
        "15efcc88f8e8f8fdf0edda7d73adc7e7b1c3f14e3e7ffd30aa36037ea89511ec",
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
    path = write_manifest(plan, tmp_path, "results.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MANIFEST_GOLDENS[name]
    assert plan_from_manifest(path) == (plan, "results.csv")


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
        "d4a990fc931782f3c371a41867df94681b251a78d2ce43dd44137a7baccfa221",
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
        "0b6a841595c64e77e85c7d9c3d78e3962cb4b8aa578cbcbac37ba9475b93d919",
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
        "00e5e931389b90fb3eed18421f865b362ed1f82d4577fa59a5fdd5013d3f8a9b",
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
