"""Committed results under ``results/`` re-run from their manifests with
``isingmimo report`` and write the same CSV bytes (see results/README.md)."""

from pathlib import Path

import pytest

from isingmimo.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

# The results cheap enough to re-run on every test run, by directory name.
RERUN = ["bpsk-n16-ml-check"]


@pytest.mark.parametrize("name", RERUN)
def test_report_rewrites_the_committed_csv(name, tmp_path):
    committed = RESULTS / name
    manifest = str(committed / "manifest.json")
    assert main(["report", "--manifest", manifest, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "results.csv").read_bytes() == (committed / "results.csv").read_bytes()


def test_every_result_has_a_readme_row():
    rows = (RESULTS / "README.md").read_text()
    for result in sorted(p for p in RESULTS.iterdir() if p.is_dir()):
        assert f"| `{result.name}` |" in rows
        for part in ("command.sh", "results.csv", "manifest.json"):
            assert (result / part).is_file(), (result.name, part)
