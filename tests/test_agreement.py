import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approvaldap.agreement import (
    _PRODUCT_BLOCK_ROWS,
    AGREEMENT_INDICES,
    _clusters,
    av_agr,
    central_vote,
    cntr_agr,
    jacc_agr,
    pair_agr,
    pcc_agr,
    pccplus_agr,
)
from approvaldap.core import Election, stats
from approvaldap.generators import (
    gen_cyclic,
    gen_diagonal,
    gen_k_party,
    gen_p_id,
    gen_triangle,
    gen_xy_two_party,
)
from approvaldap.metrics import pcc_matrix

from conftest import make_random_election
from oracles import (
    cluster_agreement_oracle,
    cntr_agr_closed_form,
    hamming,
    jaccard_similarity_matrix,
    pair_agr_naive,
    restrict_voters,
)


def brute_chd(e: Election, ballot) -> int:
    return sum(hamming(e.matrix[i], ballot) for i in range(e.num_voters))


def all_central_votes(e: Election):
    """Every ballot agreeing with at least half the voters on each candidate."""
    n = e.num_voters
    scores = e.approval_counts()
    options = []
    for s in scores:
        allowed = []
        if n - s >= n / 2:
            allowed.append(0)
        if s >= n / 2:
            allowed.append(1)
        options.append(allowed)
    for combo in itertools.product(*options):
        yield np.array(combo, dtype=np.uint8)


def test_av_agr_examples():
    assert av_agr(gen_p_id(60, 60, 0.2)) == 1.0
    assert av_agr(gen_k_party(60, 60, 2)) == 0.0
    assert av_agr(gen_k_party(60, 60, 3)) == pytest.approx(1 / 3)
    assert av_agr(gen_diagonal(60)) == pytest.approx(58 / 60)


def test_av_agr_zero_characterization_exhaustive():
    # on 4x4 elections av_agr is 0 exactly when every candidate has score n/2
    hits = 0
    for code in range(2**16):
        mat = ((code >> np.arange(16)) & 1).reshape(4, 4).astype(np.uint8)
        e = Election(mat)
        balanced = bool((mat.sum(axis=0) == 2).all())
        if balanced:
            hits += 1
            assert av_agr(e) == 0.0
        else:
            assert av_agr(e) > 0.0
    assert hits == 6**4


def test_central_vote_examples():
    third = gen_p_id(60, 60, 1 / 3)
    cv = central_vote(third)
    assert np.array_equal(cv.ballot, third.matrix[0])
    assert cv.chd == 0

    two_party = gen_k_party(60, 60, 2)
    cv2 = central_vote(two_party)
    assert not cv2.ballot.any()  # ties at n/2 resolve to disapprove
    assert cv2.chd == 60 * 60 // 2
    assert cv2.chd == brute_chd(two_party, cv2.ballot)


def test_chd_invariant_over_central_vote_choice(rng):
    # ties make cen(E) larger than one ballot; chd must not depend on the pick
    for _ in range(40):
        e = make_random_election(rng, max_m=6, max_n=6)
        chds = {brute_chd(e, u) for u in all_central_votes(e)}
        assert chds == {central_vote(e).chd}


def test_cntr_agr_examples():
    assert cntr_agr(gen_p_id(60, 60, 0.5)) == 1.0
    assert cntr_agr(gen_diagonal(60)) == 0.0
    assert round(cntr_agr(gen_triangle(60)), 2) == 0.49
    assert cntr_agr(gen_k_party(60, 60, 2)) == 0.0
    # degenerate saturation is an identity election
    assert cntr_agr(Election([[0, 0], [0, 0]])) == 1.0


def test_cntr_agr_closed_form_matches_exactly(rng):
    checked = 0
    while checked < 200:
        e = make_random_election(rng)
        total = e.total_approvals()
        if total in (0, e.num_voters * e.num_candidates):
            continue
        assert cntr_agr_closed_form(e) == cntr_agr(e)
        checked += 1
    with pytest.raises(ValueError):
        cntr_agr_closed_form(Election([[1, 1], [1, 1]]))


def test_cntr_agr_closed_form_values():
    assert cntr_agr_closed_form(gen_k_party(60, 60, 2)) == 0.0
    # definition-exact value for the (1/3,1/3) unbalanced two-party election:
    # chd = 20*60 = 1200, n*min(avl, rev_avl) = 1600
    e = gen_xy_two_party(60, 60, 1 / 3, 1 / 3)
    assert cntr_agr_closed_form(e) == pytest.approx(1 - 1200 / 1600)


def test_pair_agr_examples():
    assert pair_agr(gen_p_id(60, 60, 0.9)) == 1.0
    assert pair_agr(gen_triangle(60)) == pytest.approx(1 / 3)
    assert pair_agr(gen_k_party(60, 60, 2)) == 0.0
    assert pair_agr(gen_cyclic(60)) == 0.0
    assert pair_agr(Election([[1, 1, 1]])) == 1.0  # degenerate saturation


def test_pair_agr_naive_equivalence(rng):
    checked = 0
    while checked < 200:
        e = make_random_election(rng, max_m=15, max_n=15)
        total = e.total_approvals()
        if total in (0, e.num_voters * e.num_candidates):
            continue
        assert pair_agr_naive(e) == pair_agr(e)
        checked += 1
    with pytest.raises(ValueError):
        pair_agr_naive(gen_p_id(5, 5, 0.0))


def test_jacc_agr_examples():
    assert jacc_agr(gen_k_party(60, 60, 2)) == 0.5
    assert jacc_agr(gen_k_party(60, 60, 3)) == pytest.approx(1 / 3)
    assert round(jacc_agr(gen_diagonal(60)), 2) == 0.02
    # n voters approving pairwise disjoint sets score exactly 1/n
    assert jacc_agr(gen_diagonal(8)) == pytest.approx(1 / 8)
    assert jacc_agr(gen_p_id(10, 5, 0.4)) == 1.0


def test_pcc_agr_examples():
    for k in (2, 3, 4, 5, 6):
        assert pcc_agr(gen_k_party(60, 60, k)) == pytest.approx(0.0, abs=1e-12)
    assert round(pcc_agr(gen_triangle(60)), 2) == 0.50
    assert pcc_agr(gen_p_id(60, 60, 1 / 3)) == 1.0


def test_pcc_agr_equals_pair_agr_for_fixed_length_ballots(rng):
    for _ in range(50):
        m = int(rng.integers(3, 25))
        n = int(rng.integers(2, 20))
        length = int(rng.integers(1, m))
        rows = np.zeros((n, m), dtype=np.uint8)
        for i in range(n):
            rows[i, rng.choice(m, length, replace=False)] = 1
        e = Election(rows)
        assert pcc_agr(e) == pytest.approx(pair_agr(e), abs=1e-10)


def test_pcc_agr_pair_agr_differ_for_varying_lengths():
    tri = gen_triangle(60)
    assert round(pcc_agr(tri), 2) == 0.50
    assert round(pair_agr(tri), 2) == 0.33


@st.composite
def pcc_elections(draw):
    """Random elections, plus the edge shapes of the O(nm) PCC sum: all-0
    and all-1 ballots, duplicates, and constant ballots beside copies of
    one non-constant ballot."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["random", "pool", "one_varying"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        rows = rng.random((n, m)) < rng.uniform(0.05, 0.95)
    else:
        pool = np.vstack([np.zeros(m), np.ones(m), rng.random((3, m)) < 0.5])
        if kind == "one_varying":
            pool = pool[:3]
        rows = pool[rng.integers(len(pool), size=n)]
    return Election(rows.astype(np.uint8))


@settings(max_examples=400, deadline=None)
@given(pcc_elections())
def test_pcc_agr_matches_pair_mean(e):
    value = pcc_agr(e)
    assert 0.0 <= value <= 1.0
    assert abs(value - float(pcc_matrix(e.matrix).mean())) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_pcc_agr_is_exactly_one_on_identity_elections(m, n, seed):
    rng = np.random.default_rng(seed)
    ballot = rng.random(m) < rng.uniform(0.0, 1.0)
    assert pcc_agr(Election(np.tile(ballot, (n, 1)).astype(np.uint8))) == 1.0


@st.composite
def labelled_elections(draw):
    """An election from ``make_random_election`` with one cluster id per
    voter, ids drawn from a sparse set so they are rarely contiguous.  Kinds:
    random ids; every voter its own cluster; each cluster holding copies of
    one ballot (empty and full ballots among them); a single cluster.
    Outside the copies kind, some ballots are made empty or full."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = make_random_election(rng, max_m=12, max_n=30)
    n, m = e.num_voters, e.num_candidates
    kind = draw(st.sampled_from(["random", "singletons", "copies", "one"]))
    ids = np.array(draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True)))
    if kind == "singletons":
        labels = 3 * rng.permutation(n)
    elif kind == "one":
        labels = np.full(n, ids[0])
    else:
        labels = ids[rng.integers(ids.size, size=n)]
    mat = e.matrix.copy()
    if kind == "copies":
        pool = np.vstack([np.zeros((1, m)), np.ones((1, m)), mat])
        for c in ids:
            mat[labels == c] = pool[rng.integers(len(pool))]
    else:
        edge = rng.random(n) < 0.2
        mat[edge] = rng.integers(0, 2, size=(int(edge.sum()), 1))
    return Election(mat), labels


@settings(max_examples=400, deadline=None)
@given(labelled_elections())
@example((Election([[1, 0, 1], [1, 0, 1], [0, 1, 0], [1, 1, 0]]), np.array([3, 7, 3, 7])))
@example((Election([[0, 0], [1, 1], [0, 1]]), np.array([5, 5, 9])))
def test_clustered_agreement_matches_sub_elections(case):
    e, labels = case
    for agr in (cntr_agr, pcc_agr):
        assert agr(e, labels) == cluster_agreement_oracle(e, labels, agr)
        assert agr(e, np.zeros(e.num_voters, dtype=np.intp)) == agr(e)


def test_unlabelled_agreement_views_the_matrix_and_equals_one_cluster(rng):
    e = make_random_election(rng)
    assert list(_clusters(e, None)) == [(1.0, slice(None), e.num_voters)]
    for _ in range(200):
        e = make_random_election(rng)
        one = np.zeros(e.num_voters)
        assert pcc_agr(e) == pcc_agr(e, one)
        assert cntr_agr(e) == cntr_agr(e, one)


def test_pccplus_agr_examples():
    for k in (2, 3, 4, 5):
        assert pccplus_agr(gen_k_party(60, 60, k)) == pytest.approx(1 / k, abs=1e-12)
    e = gen_xy_two_party(60, 60, 1 / 3, 1 / 3)
    assert pccplus_agr(e) == pytest.approx(5 / 9)
    assert round(pccplus_agr(gen_cyclic(60)), 2) == 0.25


@st.composite
def local_elections(draw):
    """Elections for the distinct-ballot sums of the local indices: random
    ones, repeats of a small pool, constant ballots only (all empty, all
    full or both), and more distinct ballots than two product blocks."""
    kind = draw(st.sampled_from(["random", "pool", "constant", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 30))
    if kind == "random":
        rows = rng.random((n, m)) < rng.uniform(0.05, 0.95)
    elif kind == "pool":
        pool = np.vstack([np.zeros(m), np.ones(m), rng.random((3, m)) < 0.5])
        rows = pool[rng.integers(len(pool), size=n)]
    elif kind == "constant":
        pool = np.vstack([np.zeros(m), np.ones(m)])[draw(st.sampled_from([[0], [1], [0, 1]]))]
        rows = pool[rng.integers(len(pool), size=n)]
    else:  # nearly all distinct, past two product blocks
        n = 2 * _PRODUCT_BLOCK_ROWS + draw(st.integers(1, 60))
        rows = rng.random((n, 20)) < rng.uniform(0.2, 0.8)
    return Election(rows.astype(np.uint8))


@settings(max_examples=300, deadline=None)
@given(local_elections())
@example(Election([[0]]))
@example(Election([[1]]))
@example(Election([[0], [1], [1]]))
@example(Election([[1, 0, 1]]))
@example(Election([[0, 0, 0], [1, 1, 1], [0, 0, 0]]))
@example(Election(np.random.default_rng(11).random((3 * _PRODUCT_BLOCK_ROWS, 20)) < 0.5))
def test_local_indices_match_square_oracles(e):
    assert abs(jacc_agr(e) - float(jaccard_similarity_matrix(e).mean())) <= 1e-12
    assert abs(pccplus_agr(e) - float(np.maximum(pcc_matrix(e.matrix), 0.0).mean())) <= 1e-12


@pytest.mark.parametrize("name", ["jacc_agr", "pccplus_agr"])
def test_local_indices_peak_memory_is_below_a_square_matrix(name):
    import tracemalloc

    n = 4000
    rng = np.random.default_rng(3)
    e = Election((rng.random((n, 50)) < 0.3).astype(np.uint8))
    tracemalloc.start()
    try:
        AGREEMENT_INDICES[name](e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 n x n matrix is 8 n^2 bytes
    assert peak < n * n


def test_all_indices_are_one_on_identity_elections():
    for p in (0.1, 0.25, 0.5, 0.8, 1.0, 0.0):
        e = gen_p_id(12, 7, p)
        for name, fn in AGREEMENT_INDICES.items():
            assert fn(e) == pytest.approx(1.0, abs=1e-12), name


def test_invariance_under_permutations(rng):
    e = make_random_election(rng, max_m=12, max_n=12)
    vperm = rng.permutation(e.num_voters)
    cperm = rng.permutation(e.num_candidates)
    permuted = Election(e.matrix[vperm][:, cperm])
    for name, fn in AGREEMENT_INDICES.items():
        assert fn(permuted) == pytest.approx(fn(e), abs=1e-12), name


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_indices_stay_in_unit_interval(data):
    n = data.draw(st.integers(1, 7))
    m = data.draw(st.integers(1, 7))
    rows = data.draw(
        st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=n, max_size=n)
    )
    e = Election(rows)
    for name, fn in AGREEMENT_INDICES.items():
        value = fn(e)
        assert -1e-12 <= value <= 1.0 + 1e-12, name


def test_weighted_restriction_consistency(rng):
    # restriction keeps candidate set, so pcc_agr of a sub-collection equals
    # the mean of the full pcc matrix over that block
    from approvaldap.metrics import pcc_matrix

    e = make_random_election(rng, max_m=10, max_n=12)
    idx = rng.choice(e.num_voters, size=max(1, e.num_voters // 2), replace=False)
    sub = restrict_voters(e, idx)
    block = pcc_matrix(e.matrix)[np.ix_(idx, idx)]
    assert pcc_agr(sub) == pytest.approx(max(block.mean(), 0.0), abs=1e-12)


def test_pair_agr_zero_characterization(rng):
    # zero exactly when every candidate has the same approval score
    for _ in range(150):
        e = make_random_election(rng, max_m=10, max_n=10)
        scores = e.approval_counts()
        total = e.total_approvals()
        if total in (0, e.num_voters * e.num_candidates):
            continue
        if scores.min() == scores.max():
            assert pair_agr(e) == 0.0
        else:
            assert pair_agr(e) > 0.0
    # cyclic shifts of one ballot give every candidate the same score
    for trial in range(20):
        m = int(rng.integers(2, 12))
        base = (rng.random(m) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        if base.min() == base.max():
            continue
        e = Election(np.stack([np.roll(base, s) for s in range(m)]))
        assert pair_agr(e) == 0.0
