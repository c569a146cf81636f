import numpy as np
import pytest
from hypothesis import settings

from approvaldap import _solvers
from approvaldap.core import Election

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# pass/fail lines appended by the acceptance suite; echoed in the terminal
# summary so they stay visible without -s
ACCEPTANCE_LINES: list[str] = []


# wide candidate counts, past the random elections' max_m, as edge shapes
BOUNDARY_WIDTHS = (63, 64, 65, 130)


def make_random_election(
    rng: np.random.Generator, max_m: int = 20, max_n: int = 20, m: int | None = None
) -> Election:
    """Random election with a density drawn per election, edge shapes included.

    ``m`` fixes the candidate count; otherwise it is drawn up to ``max_m``.
    """
    if m is None:
        m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    p = float(rng.uniform(0.05, 0.95))
    mat = (rng.random((n, m)) < p).astype(np.uint8)
    return Election(mat)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xA11CE)


@pytest.fixture
def blas_threads(monkeypatch):
    """The ``(get, set)`` thread-count controls of numpy's and scipy's
    bundled OpenBLAS, each set to 2 threads for the test and restored after
    it, with no thread variable in the environment."""
    for name in _solvers._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    controls = _solvers._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS with thread controls")
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, previous):
        set_(count)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
