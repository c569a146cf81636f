import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approvaldap.core import Election
from approvaldap.metrics import _jaccard_similarity, cross_hamming, pcc_matrix

from conftest import BOUNDARY_WIDTHS, make_random_election
from oracles import (
    hamming,
    hamming_matrix,
    intersection_matrix,
    jaccard,
    jaccard_similarity_matrix,
    pcc,
)


def pcc_mean_centered(u, v):
    """Definition-level PCC on the raw binary vectors (test oracle)."""
    x = np.asarray(u, dtype=float)
    y = np.asarray(v, dtype=float)
    dx, dy = x - x.mean(), y - y.mean()
    den = math.sqrt((dx**2).sum()) * math.sqrt((dy**2).sum())
    if den == 0:
        return 1.0
    return float((dx * dy).sum() / den)


def test_hamming_examples():
    assert hamming([1, 0, 1], [1, 0, 1]) == 0
    assert hamming([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]) == 4
    u = [1, 0, 1, 1, 0]
    assert hamming(u, [1 - b for b in u]) == 5
    with pytest.raises(ValueError):
        hamming([1, 0], [1, 0, 1])


def test_jaccard_examples():
    assert jaccard([1, 1, 0], [1, 1, 0]) == 0.0
    assert jaccard([1, 0, 0, 0], [0, 0, 1, 1]) == 1.0
    assert jaccard([1, 1, 0, 0], [1, 0, 1, 0]) == pytest.approx(2 / 3)
    assert jaccard([0, 0], [0, 0]) == 0.0
    with pytest.raises(ValueError):
        jaccard([1], [1, 0])


def test_pcc_examples():
    assert pcc([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0
    assert pcc([1, 1, 0, 0], [0, 0, 1, 1]) == -1.0
    # disjoint blocks of size m/k: value -(1/k)/(1-1/k)
    for k in (2, 3, 4, 6):
        m = 60
        u = [1] * (m // k) + [0] * (m - m // k)
        v = [0] * (m // k) + [1] * (m // k) + [0] * (m - 2 * m // k)
        assert pcc(u, v) == pytest.approx(-(1 / k) / (1 - 1 / k), abs=1e-15)
    assert pcc([0, 0, 0], [1, 0, 1]) == 1.0
    assert pcc([1, 1, 1], [1, 0, 1]) == 1.0


def test_pcc_matches_mean_centered_form(rng):
    for _ in range(300):
        m = int(rng.integers(1, 12))
        u = (rng.random(m) < rng.uniform(0, 1)).astype(int)
        v = (rng.random(m) < rng.uniform(0, 1)).astype(int)
        constant = u.min() == u.max() or v.min() == v.max()
        if constant:
            assert pcc(u, v) == 1.0
        else:
            assert pcc(u, v) == pytest.approx(pcc_mean_centered(u, v), abs=1e-12)


def test_pcc_from_hamming_agrees_on_fixed_length_pairs(rng):
    m, n, approvals = 20, 20, 7
    rows = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        rows[i, rng.choice(m, approvals, replace=False)] = 1
    e = Election(rows)
    p = approvals / m
    for i in range(n):
        for j in range(n):
            # two ballots of p*m approvals each: pcc = 1 - ham / (2 m p (1 - p))
            expected = 1.0 - hamming(rows[i], rows[j]) / (2.0 * m * p * (1.0 - p))
            got = pcc(rows[i], rows[j])
            assert got == pytest.approx(expected, abs=1e-12)


def test_matrices_match_per_pair_calls(rng):
    elections = [make_random_election(rng, max_m=12, max_n=10) for _ in range(20)]
    elections += [make_random_election(rng, max_n=6, m=m) for m in BOUNDARY_WIDTHS]
    for e in elections:
        mat = e.matrix
        ham = hamming_matrix(e)
        jac = jaccard_similarity_matrix(e)
        lengths = e.ballot_lengths().astype(np.float64)
        n11 = intersection_matrix(e).astype(np.float64)
        sim = _jaccard_similarity(n11, lengths[:, None], lengths)
        pcm = pcc_matrix(mat)
        for i in range(e.num_voters):
            for j in range(e.num_voters):
                assert ham[i, j] == hamming(mat[i], mat[j])
                want = 1 - jaccard(mat[i], mat[j])
                assert jac[i, j] == pytest.approx(want, abs=1e-14)
                assert sim[i, j] == pytest.approx(want, abs=1e-14)
                assert pcm[i, j] == pytest.approx(pcc(mat[i], mat[j]), abs=1e-14)


def test_cross_hamming(rng):
    for m in (None, *BOUNDARY_WIDTHS):
        a = make_random_election(rng, max_m=9, max_n=7, m=m)
        b = (rng.random((5, a.num_candidates)) < 0.5).astype(np.uint8)
        table = cross_hamming(a.matrix, b)
        assert table.dtype == np.float64
        want = [[hamming(u, v) for v in b] for u in a.matrix]
        assert np.array_equal(table, np.array(want, dtype=np.float64))
    with pytest.raises(ValueError):
        cross_hamming(a.matrix, np.ones((1, a.num_candidates + 1), dtype=np.uint8))


def test_cross_hamming_is_bitwise_the_length_sum_form(rng):
    # the factor product against -2 A B^T + l_a + l_b, the form it replaced
    for m in (1, 3, 60, 200, 300):
        a = (rng.random((40, m)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        b = (rng.random((70, m)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        want = -2.0 * (a.astype(np.float64) @ b.astype(np.float64).T)
        want += a.sum(axis=1)[:, None]
        want += b.sum(axis=1)
        got = cross_hamming(a, b)
        assert np.array_equal(got, want) and not np.signbit(got).any()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_metric_properties(data):
    m = data.draw(st.integers(1, 10))
    ballots = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    u = data.draw(ballots)
    v = data.draw(ballots)
    w = data.draw(ballots)
    assert hamming(u, v) == hamming(v, u)
    assert jaccard(u, v) == pytest.approx(jaccard(v, u))
    assert pcc(u, v) == pytest.approx(pcc(v, u))
    assert hamming(u, w) <= hamming(u, v) + hamming(v, w)
    assert jaccard(u, w) <= jaccard(u, v) + jaccard(v, w) + 1e-12
    assert -1.0 - 1e-12 <= pcc(u, v) <= 1.0 + 1e-12


def jaccard_similarity_oracle(e):
    """The boolean-gather form of ``jaccard_similarity_matrix``."""
    n11 = intersection_matrix(e)
    lengths = e.ballot_lengths()
    union = lengths[:, None] + lengths[None, :] - n11
    sim = np.ones((e.num_voters, e.num_voters), dtype=np.float64)
    nz = union > 0
    sim[nz] = n11[nz] / union[nz]
    return sim


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_jaccard_similarity_matches_gather_form(m, n, seed):
    rng = np.random.default_rng(seed)
    mat = (rng.random((n, m)) < rng.uniform(0.0, 1.0)).astype(np.uint8)
    mat[rng.random(n) < 0.3] = 0  # empty ballots
    for e in (Election(mat), Election(np.zeros_like(mat))):
        want = jaccard_similarity_oracle(e)
        lengths = e.ballot_lengths().astype(np.float64)
        n11 = intersection_matrix(e).astype(np.float64)
        library = _jaccard_similarity(n11, lengths[:, None], lengths)
        for got in (jaccard_similarity_matrix(e), library):
            assert got.tobytes() == want.tobytes()
            assert got.mean() == want.mean()
