"""Fixtures of every test module."""

import pytest

from isingmimo import solvers


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Every test leaves numpy's BLAS thread count as it found it, so a
    solve that pins it and does not restore it fails where it runs."""
    get_threads, _ = solvers._openblas()
    before = get_threads and get_threads()
    yield
    assert (get_threads and get_threads()) == before
