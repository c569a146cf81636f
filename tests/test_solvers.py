"""``approvaldap._solvers`` against the public scipy functions it stands in
for, and the CLI's one-thread BLAS block."""

import ctypes

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from approvaldap import _solvers, cli


@st.composite
def symmetric_matrices(draw):
    """Symmetric float64 matrices of order 1 to 300: dense random ones,
    rank-deficient products ``B B^T`` (rank 0 to n) and ``Q diag(d) Q^T``
    whose eigenvalues repeat, from a handful of distinct values."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["dense", "low_rank", "repeated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        a = rng.standard_normal((n, n))
    elif kind == "low_rank":
        b = rng.standard_normal((n, draw(st.integers(0, n))))
        a = b @ b.T
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = rng.standard_normal(draw(st.integers(1, 4)))
        a = (q * rng.choice(values, n)) @ q.T
    return 0.5 * (a + a.T)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_eigh_is_bitwise_scipys(a):
    w, v = _solvers.eigh(a)
    want_w, want_v = scipy.linalg.eigh(a)
    assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert v.flags.f_contiguous == want_v.flags.f_contiguous
    assert np.array_equal(a, 0.5 * (a + a.T))  # the input is not overwritten


@pytest.mark.parametrize(
    "a",
    [
        np.full((3, 3), np.nan),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.ones((2, 3)),
        np.ones(3),
        np.ones((2, 2, 2)),
    ],
    ids=["nan", "inf", "rectangular", "vector", "stack"],
)
def test_eigh_refuses_what_scipy_refuses(a):
    with pytest.raises(ValueError) as ours:
        _solvers.eigh(a)
    if a.ndim <= 2:  # scipy.linalg.eigh loops over the leading axes of a stack
        with pytest.raises(ValueError) as theirs:
            scipy.linalg.eigh(a)
        assert str(ours.value) == str(theirs.value)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_linear_sum_assignment_is_scipys(rows, cols, spread, seed):
    # few distinct costs, so ties are the rule
    cost = np.random.default_rng(seed).integers(0, spread, (rows, cols))
    got = _solvers.linear_sum_assignment(cost)
    want = scipy.optimize.linear_sum_assignment(cost)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def blas_counts(controls) -> list[int]:
    return [get() for get, _ in controls]


@pytest.mark.parametrize("fails", [False, True])
def test_cli_runs_each_command_on_one_blas_thread(blas_threads, monkeypatch, tmp_path, fails):
    seen = []

    def handler(args):
        seen.append(blas_counts(blas_threads))
        if fails:
            raise ValueError("refused")
        return 0

    monkeypatch.setattr(cli, "_cmd_generate", handler)
    code = cli.main(["generate", "--family", "p_ic", "--out", str(tmp_path / "e.json")])
    assert code == (2 if fails else 0)
    assert seen == [[1] * len(blas_threads)]
    assert blas_counts(blas_threads) == [2] * len(blas_threads)  # restored after the command


@pytest.mark.parametrize("variable", _solvers._BLAS_THREAD_VARIABLES)
def test_a_blas_thread_variable_leaves_the_libraries_alone(blas_threads, monkeypatch, tmp_path, variable):
    monkeypatch.setenv(variable, "2")
    loaded, seen = [], []

    def handler(args):
        seen.append(blas_counts(blas_threads))
        return 0

    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: loaded.append(args))
    monkeypatch.setattr(cli, "_cmd_generate", handler)
    assert cli.main(["generate", "--family", "p_ic", "--out", str(tmp_path / "e.json")]) == 0
    assert loaded == []
    assert seen == [[2] * len(blas_threads)]
