"""Fixtures of every test module."""

import pytest

from isingmimo import solvers


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Every test leaves numpy's BLAS thread count as it found it, so a
    solve that pins it and does not restore it fails where it runs."""
    blas = solvers._openblas()
    before = blas and blas[0]()
    yield
    assert (blas and blas[0]()) == before


@pytest.fixture
def blas_setter_calls(monkeypatch):
    """The counts this process passes numpy's OpenBLAS thread-count setter
    from here on, in order; skips the test where numpy's BLAS is not an
    OpenBLAS. A forked worker records its own calls in its own copy."""
    blas = solvers._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS exports no thread-count getter")
    get_threads, set_threads = blas
    calls = []

    def spy(count):
        calls.append(count)
        set_threads(count)

    monkeypatch.setattr(solvers, "_openblas", lambda: (get_threads, spy))
    return calls
