import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import approvaldap
from approvaldap.core import Election, distinct_rows, seeded_streams, stats, subsample
from approvaldap.generators import gen_diagonal, gen_k_party, gen_p_id, gen_triangle

from conftest import make_random_election
from oracles import seeded_rng, subsample_candidates_first


@pytest.mark.parametrize(
    "module",
    ["approvaldap"] + [f"approvaldap.{m.name}" for m in pkgutil.iter_modules(approvaldap.__path__)],
)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ names missing {name}"


# the package's public names; a new export has to be added here on purpose
PUBLIC_NAMES = (
    "Election", "ElectionStats", "stats", "subsample",
    "av_agr", "central_vote", "cntr_agr", "pair_agr", "jacc_agr", "pcc_agr", "pccplus_agr",
    "kmedoids_hamming", "spectral_pcc",
    "a_div", "a_pol", "cntr_div", "pcc_div", "cntr_pol", "pcc_pol", "pair_pol",
    "ham_single_to_unc", "out_div",
    "CultureSpec", "sample",
    "ParseError", "parse_pabulib", "write_native", "read_native",
    "INDEX_NAMES", "evaluate_index", "Embedding", "feature_vector", "mds_embed",
    "resampling_experiment", "index_table", "map_of_elections", "synthetic_map_entries",
    "complementarity", "correlations",
    "__version__",
)

# (module, name) pairs taken out of the public API; oracles in tests/oracles.py
# or inline expressions replace them
REMOVED_NAMES = (
    ("core", "approval_score"),
    ("core", "reverse"),
    ("metrics", "PairCounts"),
    ("metrics", "pair_counts"),
    ("metrics", "hamming"),
    ("metrics", "jaccard"),
    ("metrics", "pcc"),
    ("metrics", "pcc_from_hamming"),
    ("io", "threshold_scores"),
    ("experiments", "FeatureVector"),
    ("experiments", "feature_distance"),
    ("divpol", "_EXACT_UNIVERSE_MAX_M"),
    ("core", "seeded_rng"),
    ("core", "restrict_voters"),
    ("core", "restrict_candidates"),
    ("generators", "_election_rng"),
)


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(approvaldap.__all__) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("module, name", REMOVED_NAMES)
def test_removed_names_stay_removed(module, name):
    assert not hasattr(approvaldap, name)
    assert not hasattr(importlib.import_module(f"approvaldap.{module}"), name)


def test_out_div_has_no_exact_mode():
    from approvaldap.divpol import ham_to_universe, out_div

    for fn in (out_div, ham_to_universe):
        assert list(inspect.signature(fn).parameters) == ["e", "seed"]


def test_construction_validates_entries():
    with pytest.raises(ValueError):
        Election([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        Election(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Election(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        Election([1, 0, 1])


def test_from_approval_sets_round_trip(rng):
    for _ in range(50):
        e = make_random_election(rng)
        sets = [np.flatnonzero(row).tolist() for row in e.matrix]
        assert np.array_equal(Election.from_approval_sets(e.num_candidates, sets).matrix, e.matrix)
    e = Election.from_approval_sets(5, [[0, 3], [], [4, 1]])
    assert e.matrix.tolist() == [
        [1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1],
    ]
    # duplicate indices collapse; a voter's indices may come in any iterable
    dup = Election.from_approval_sets(3, [[2, 0, 2], (i for i in [1]), {0}])
    assert dup.matrix.tolist() == [[1, 0, 1], [0, 1, 0], [1, 0, 0]]
    for sets, message in (
        ([[3]], "out of range"),
        ([[0], [-1]], "out of range"),
        ([[0], [1.0]], "must be integers, got float64"),
        ([[0], [True]], "must be integers, got bool"),
        ([], "at least one voter"),
    ):
        with pytest.raises(ValueError, match=message):
            Election.from_approval_sets(3, sets)


def test_label_is_metadata_beside_the_ballots():
    a = Election([[1, 0], [0, 1]], label="a")
    b = Election([[1, 0], [0, 1]], label="b")
    c = Election([[1, 0], [1, 1]])
    assert (a.label, b.label, c.label) == ("a", "b", None)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_election_owns_a_read_only_copy():
    rows = [[1, 0, 1], [0, 1, 0]]
    arr = np.array(rows, dtype=np.uint8)
    e = Election(arr)
    arr[0, 0] = 0
    assert e.matrix.tolist() == rows
    assert np.array_equal(e.matrix, Election(rows).matrix)
    assert e.matrix.flags.c_contiguous and e.matrix.dtype == np.uint8
    with pytest.raises(ValueError):
        e.matrix[0, 1] = 1


def test_approval_score_examples():
    # candidate j's approval score is approval_counts()[j]
    third_id = gen_p_id(60, 60, 1 / 3).approval_counts()
    assert third_id.tolist() == [60] * 20 + [0] * 40
    assert gen_k_party(60, 60, 2).approval_counts().tolist() == [30] * 60
    assert gen_diagonal(60).approval_counts().tolist() == [1] * 60


def test_stats_examples():
    st_id = stats(gen_p_id(60, 60, 1 / 3))
    assert st_id.avl == 20 and st_id.satr == pytest.approx(1 / 3)
    st_tri = stats(gen_triangle(60))
    assert st_tri.avl == pytest.approx(30.5)
    assert st_tri.satr == pytest.approx(61 / 120)
    assert stats(gen_k_party(60, 60, 2)).satr == 0.5


def test_subsample_noop_and_determinism(rng):
    e = make_random_election(rng, max_m=8, max_n=8)
    assert subsample(e, 100, 100, seed=3) is e
    big = Election((rng.random((50, 30)) < 0.4).astype(np.uint8))
    a = subsample(big, 10, 20, seed=9)
    b = subsample(big, 10, 20, seed=9)
    assert np.array_equal(a.matrix, b.matrix) and a.matrix.shape == (20, 10)
    c = subsample(big, 10, 20, seed=10)
    assert c.num_candidates == 10 and c.num_voters == 20
    with pytest.raises(ValueError):
        subsample(big, 0, 5, seed=1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([-1, 0, 1, 5]),
    st.sampled_from([-1, 0, 1, 5]),
    st.integers(0, 2**64 - 1),
)
def test_subsample_matches_the_candidates_first_order(max_m, max_n, dm, dn, seed):
    # each shape one below, at, one above or well above its cap
    m, n = max(1, max_m + dm), max(1, max_n + dn)
    rng = np.random.default_rng(seed % 2**32)
    e = Election((rng.random((n, m)) < 0.5).astype(np.uint8), label="x")
    got = subsample(e, max_m, max_n, seed)
    want = subsample_candidates_first(e, max_m, max_n, seed)
    assert np.array_equal(got.matrix, want.matrix) and got.label == "x"
    assert got.matrix.shape == (min(n, max_n), min(m, max_m))
    assert (got is e) == (m <= max_m and n <= max_n)


def test_subsample_rows_are_restrictions():
    mat = np.arange(40).reshape(8, 5) % 2
    e = Election(mat.astype(np.uint8))
    sub = subsample(e, 5, 4, seed=0)
    original_rows = {r.tobytes() for r in e.matrix}
    assert all(r.tobytes() in original_rows for r in sub.matrix)


def test_clear_cache_recomputes_memoised_matrix():
    e = gen_k_party(6, 6, 2)
    first = e.distinct_ballots()
    assert e.distinct_ballots() is first
    e.clear_cache()
    again = e.distinct_ballots()
    assert again is not first and again[0] is not first[0]
    assert all(np.array_equal(a, b) for a, b in zip(again, first))


# the Generator calls of the library's streams: the samplers' and
# out_div's draws, subsample's cuts (both choice algorithms: Floyd's for
# few of many, a partial shuffle otherwise), k-medoids' first pick and the
# party count of uneven_party_list
_STREAM_DRAWS = (
    lambda g: g.random(7),
    lambda g: g.random((3, 4)),
    lambda g: g.integers(0, 5, size=9),
    lambda g: np.array(g.integers(1000)),
    lambda g: g.choice(30, size=12, replace=False),
    lambda g: g.choice(20_000, size=300, replace=False),
    lambda g: np.array(g.poisson(1.0)),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    substreams=st.lists(
        st.one_of(st.integers(0, 2**16), st.integers(2**32, 2**64 - 1)), min_size=1, max_size=5
    ),
)
@example(seed=0, substreams=[0xF0, 0xC0, 0xF0])
def test_seeded_streams_are_new_generators(seed, substreams):
    stream = seeded_streams(seed)
    for sub in substreams:
        for draw in _STREAM_DRAWS:
            assert draw(stream(sub)).tobytes() == draw(seeded_rng(seed, sub)).tobytes()
        # the draws in sequence on one stream, as the samplers make them
        rng, reference = stream(sub), seeded_rng(seed, sub)
        for draw in _STREAM_DRAWS:
            assert draw(rng).tobytes() == draw(reference).tobytes()


def test_only_seeded_streams_builds_a_bit_generator():
    package = Path(approvaldap.__file__).parent
    core_source = (package / "core.py").read_text(encoding="utf-8")
    fn = next(
        node
        for node in ast.parse(core_source).body
        if isinstance(node, ast.FunctionDef) and node.name == "seeded_streams"
    )
    for path in sorted(package.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if "Philox(" in line or "Generator(" in line:
                where = f"{path.name}:{number}"
                assert path.name == "core.py" and fn.lineno <= number <= fn.end_lineno, where


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_score_sum_equals_total_approvals(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 8))
    rows = data.draw(
        st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=n, max_size=n)
    )
    e = Election(rows)
    assert int(e.approval_counts().sum()) == e.total_approvals()
    assert n * stats(e).avl == pytest.approx(e.total_approvals(), abs=1e-9)
    assert stats(e).avl + stats(e).rev_avl == pytest.approx(m, abs=1e-9)
    assert 0.0 <= stats(e).satr <= 1.0


@st.composite
def pooled_matrices(draw):
    """0/1 matrices whose rows come from a small pool, so rows repeat; m
    runs past one packed byte, on and off byte boundaries."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 40))
    distinct = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = (rng.random((distinct, m)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    return pool[rng.integers(distinct, size=n)]


@settings(max_examples=300, deadline=None)
@given(pooled_matrices())
@example(np.zeros((1, 8), dtype=np.uint8))
@example(np.ones((1, 13), dtype=np.uint8))
@example(np.tile(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8), (7, 1)))
@example(np.tile(np.array([0, 1, 1], dtype=np.uint8), (5, 1)))
@example(np.eye(16, dtype=np.uint8)[::-1])
def test_distinct_rows_match_row_wise_unique(mat):
    rows, inverse, counts = distinct_rows(mat)
    want_rows, want_inverse, want_counts = np.unique(
        mat, axis=0, return_inverse=True, return_counts=True
    )
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(counts, want_counts)


def test_distinct_ballots_are_memoised_read_only():
    e = Election([[1, 0, 1], [0, 1, 1], [1, 0, 1]])
    out = e.distinct_ballots()
    assert e.distinct_ballots() is out
    rows, inverse, counts = out
    assert rows.tolist() == [[0, 1, 1], [1, 0, 1]]
    assert inverse.tolist() == [1, 0, 1] and counts.tolist() == [1, 2]
    for arr in out:
        with pytest.raises(ValueError):
            arr[0] = 0
