import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approvaldap import core, divpol
from approvaldap.agreement import cntr_agr, pcc_agr
from approvaldap.clustering import spectral_pcc
from approvaldap.core import Election, stats
from approvaldap.divpol import (
    a_div,
    a_pol,
    cntr_div,
    cntr_pol,
    ham_single_to_unc,
    ham_to_universe,
    out_div,
    pair_pol,
    pcc_div,
    pcc_pol,
)
from approvaldap.experiments import compass_specs
from approvaldap.generators import gen_diagonal, gen_k_party, gen_p_id, gen_triangle, sample
from approvaldap.metrics import cross_hamming

from conftest import make_random_election
from oracles import (
    assignment_ham_to_universe,
    exact_ham_to_universe,
    exact_out_div,
    hamming_matrix,
    seeded_rng,
)


def test_a_div_is_zero_on_identity():
    e = gen_p_id(30, 30, 0.4)
    assert cntr_div(e, seed=1) == 0.0
    assert pcc_div(e, seed=1) == 0.0


def test_cntr_div_diagonal():
    # clusters strip off one singleton per extra k: 1 - (0 + 1/60+2/60+3/60+4/60)/5
    value = cntr_div(gen_diagonal(60), seed=4)
    assert value == pytest.approx(1 - (10 / 60) / 5, abs=0.02)


def test_a_pol_examples():
    two = gen_k_party(60, 60, 2)
    assert cntr_pol(two, seed=2) == 1.0
    assert pcc_pol(two, seed=2) == 1.0
    three = gen_k_party(60, 60, 3)
    assert pcc_pol(three, seed=2) == pytest.approx(0.5)
    ident = gen_p_id(20, 20, 0.3)
    assert cntr_pol(ident, seed=2) == 0.0
    assert pcc_pol(ident, seed=2) == 0.0


def test_a_pol_never_negative(rng):
    for _ in range(20):
        e = make_random_election(rng, max_m=10, max_n=12)
        assert a_pol(e, pcc_agr, spectral_pcc, seed=1) >= 0.0


def test_pair_pol_examples():
    assert pair_pol(gen_k_party(60, 60, 2)) == 1.0
    assert pair_pol(gen_p_id(60, 60, 0.7)) == 0.0
    assert round(pair_pol(gen_triangle(60)), 2) == 0.47


def test_pair_pol_brute_force(rng):
    for _ in range(25):
        e = make_random_election(rng, max_m=10, max_n=10)
        ham = hamming_matrix(e)
        expected = 2.0 * float(np.std(ham)) / e.num_candidates
        assert pair_pol(e) == pytest.approx(expected, abs=1e-12)
        assert pair_pol(Election(1 - e.matrix)) == pair_pol(e)


def pair_pol_oracle(e: Election) -> float:
    """The Hamming-matrix form of pair_pol, with integer moments."""
    n, m = e.num_voters, e.num_candidates
    ham = hamming_matrix(e)
    s1 = int(ham.sum())
    s2 = int((ham * ham).sum())
    return 2.0 * math.sqrt(n * n * s2 - s1 * s1) / (n * n * m)


def test_pair_pol_matches_hamming_matrix_form(rng):
    elections = [make_random_election(rng, max_m=40, max_n=80) for _ in range(300)]
    elections += [gen_k_party(60, 60, 2), gen_triangle(60), gen_p_id(10, 7, 0.0)]
    for e in elections:
        assert pair_pol(e) == pair_pol_oracle(e)


def test_ham_single_to_unc_formula():
    for p in np.linspace(0, 1, 11):
        assert ham_single_to_unc(p, p) == pytest.approx(2 * p * (1 - p), abs=1e-15)
        assert ham_single_to_unc(0.0, p) == pytest.approx(p)
    with pytest.raises(ValueError):
        ham_single_to_unc(-0.1, 0.5)
    with pytest.raises(ValueError):
        ham_single_to_unc(0.5, 1.2)


def test_ham_single_to_unc_exhaustive_oracle():
    # weighted enumeration over every ballot of the universe, m = 6
    m = 6
    codes = np.arange(2**m)
    universe = ((codes[:, None] >> np.arange(m)) & 1).astype(np.int64)
    ones = universe.sum(axis=1)
    for p in (0.0, 0.2, 0.5, 0.7, 1.0):
        weights = p**ones * (1 - p) ** (m - ones)
        for q_count in range(m + 1):
            ballot = np.array([1] * q_count + [0] * (m - q_count))
            dists = np.abs(universe - ballot).sum(axis=1)
            expected = float((weights * dists).sum()) / m
            assert ham_single_to_unc(p, q_count / m) == pytest.approx(expected, abs=1e-12)


def test_out_div_identity_and_degenerate():
    assert out_div(Election([[1, 1], [1, 1]])) == 0.0
    assert out_div(Election([[0, 0, 0]])) == 0.0
    single = gen_p_id(30, 30, 0.5)
    assert out_div(single, seed=8) <= 0.05


def test_out_div_two_party_value():
    value = out_div(gen_k_party(60, 60, 2), seed=3)
    assert value == pytest.approx(0.10, abs=0.03)


def test_out_div_range_and_determinism(rng, monkeypatch):
    monkeypatch.setattr(divpol, "_SAMPLES_PER_VOTER", 3)
    for _ in range(30):
        e = make_random_election(rng, max_m=8, max_n=8)
        a = out_div(e, seed=11)
        assert 0.0 <= a <= 1.0
        assert out_div(e, seed=11) == a


def test_out_div_exact_universe_against_transport_oracle(rng):
    networkx = pytest.importorskip("networkx")
    for _ in range(25):
        e = make_random_election(rng, max_m=4, max_n=3)
        total = e.total_approvals()
        nm = e.num_voters * e.num_candidates
        if total in (0, nm):
            assert exact_out_div(e) == 0.0
            continue
        got = exact_out_div(e)
        expected = _oracle_out_div(e, networkx)
        assert got == pytest.approx(expected, abs=1e-9)


def _oracle_out_div(e: Election, networkx):
    """Integer network-simplex transportation against the full weighted universe."""
    m, n = e.num_candidates, e.num_voters
    frac = Fraction(e.total_approvals(), n * m)
    a, b = frac.numerator, frac.denominator - frac.numerator
    codes = np.arange(2**m)
    universe = ((codes[:, None] >> np.arange(m)) & 1).astype(np.int64)
    ones = universe.sum(axis=1)
    weights = [a**int(r) * b ** int(m - r) for r in ones]  # integer multiplicities
    total_mass = n * (a + b) ** m

    graph = networkx.DiGraph()
    for i in range(n):
        graph.add_node(("v", i), demand=-((a + b) ** m))
    for j in range(2**m):
        if weights[j] == 0:
            continue
        graph.add_node(("u", j), demand=n * weights[j])
        for i in range(n):
            cost = int(np.abs(e.matrix[i] - universe[j]).sum())
            graph.add_edge(("v", i), ("u", j), weight=cost)
    flow_cost, _ = networkx.network_simplex(graph)
    distance = flow_cost / total_mass / m
    p = float(frac)
    return min(1.0, max(0.0, 1.0 - distance / (2 * p * (1 - p))))


def _transport_ham_to_universe(e: Election, seed: int) -> float:
    """Sampled distance solved as the transportation LP over distinct ballots."""
    n, m = e.num_voters, e.num_candidates
    p = e.total_approvals() / (n * m)
    n_samples = divpol._SAMPLES_PER_VOTER * n
    rng = seeded_rng(seed, divpol._SAMPLE_STREAM)
    samples = (rng.random((n_samples, m)) < p).astype(np.uint8)
    ballots, counts = np.unique(e.matrix, axis=0, return_counts=True)
    sample_ballots, sample_counts = np.unique(samples, axis=0, return_counts=True)
    cost = cross_hamming(ballots, sample_ballots)
    supply = (counts * divpol._SAMPLES_PER_VOTER).astype(np.float64)
    value = divpol._transport(cost, supply, sample_counts.astype(np.float64))
    return value / (n_samples * m)


def test_sampled_assignment_matches_transport_oracle(rng, monkeypatch):
    monkeypatch.setattr(divpol, "_LP_CELL_RATIO", float("inf"))  # always the assignment
    elections = [make_random_election(rng, max_m=30, max_n=30) for _ in range(210)]
    elections += [sample(spec.with_seed(42)) for spec in compass_specs()]
    checked = 0
    for i, e in enumerate(elections):
        if e.total_approvals() in (0, e.num_voters * e.num_candidates):
            continue
        monkeypatch.setattr(divpol, "_SAMPLES_PER_VOTER", (1, 3, 5)[i % 3])
        assert abs(ham_to_universe(e, i) - _transport_ham_to_universe(e, i)) <= 1e-12
        checked += 1
    assert checked >= 200 + len(compass_specs())


@st.composite
def repeated_ballot_elections(draw):
    """Elections over a pool of a few ballots: ballots repeat, and with few
    candidates many matchings tie."""
    m = draw(st.integers(1, 10))
    pool = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ballots = (rng.random((pool, m)) < rng.random()).astype(np.uint8)
    return Election(ballots[rng.integers(pool, size=n)])


@settings(max_examples=150, deadline=None)
@given(repeated_ballot_elections(), st.integers(0, 2**32 - 1))
def test_sampled_assignment_matches_row_major_oracle(e, seed):
    assume(e.total_approvals() not in (0, e.num_voters * e.num_candidates))
    with mock.patch.object(divpol, "_LP_CELL_RATIO", math.inf):  # always the assignment
        assert ham_to_universe(e, seed) == assignment_ham_to_universe(e, seed)


def test_sampled_assignment_matches_row_major_oracle_on_party_cultures(monkeypatch):
    monkeypatch.setattr(divpol, "_LP_CELL_RATIO", math.inf)
    specs = [spec for spec in compass_specs() if "Party" in spec.label]
    assert len(specs) == 5 and all((spec.m, spec.n) == (60, 60) for spec in specs)
    for spec in specs:
        for seed in (0, 7, 42):
            e = sample(spec.with_seed(seed))
            assert ham_to_universe(e, seed) == assignment_ham_to_universe(e, seed), spec.label


def _few_distinct_ballots(n: int, m: int, seed: int) -> Election:
    """Pabulib-like ballots: every voter approves one or two of ``m`` projects."""
    rng = np.random.default_rng(seed)
    mat = np.zeros((n, m), dtype=np.uint8)
    for v in range(n):
        mat[v, rng.choice(m, size=1 + v % 2, replace=False)] = 1
    return Election(mat)


def _fail(*args):
    raise AssertionError("solver not expected here")


def test_sampled_matching_uses_lp_for_repeated_ballots(monkeypatch):
    e = _few_distinct_ballots(300, 6, seed=4)  # 1500 draws, at most 21 x 64 LP variables
    monkeypatch.setattr(divpol, "linear_sum_assignment", _fail)
    assert ham_to_universe(e, 2) == _transport_ham_to_universe(e, 2)


def test_sampled_matching_beyond_dense_cap_falls_back_to_lp(monkeypatch):
    # 15000 draws: a 1.8 GiB dense cost, over the default cap, but the LP
    # over at most 36 x 256 distinct ballot pairs is small
    e = _few_distinct_ballots(3000, 8, seed=5)
    assert 8 * (5 * e.num_voters) ** 2 > divpol._MATCHING_MAX_BYTES
    monkeypatch.setattr(divpol, "linear_sum_assignment", _fail)
    divpol.check_out_div_size(e)
    assert ham_to_universe(e, 3) == _transport_ham_to_universe(e, 3)


def test_sampled_matching_over_dense_cap_runs_lp(monkeypatch):
    e = _few_distinct_ballots(60, 5, seed=6)  # 300 draws; LP of at most 15 x 32 variables
    expected = _transport_ham_to_universe(e, 1)
    with monkeypatch.context() as patch:
        patch.setattr(divpol, "_transport", _fail)
        assert ham_to_universe(e, 1) == expected  # under the default cap: assignment
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 8 * 300 * 300 - 1)
    monkeypatch.setattr(divpol, "linear_sum_assignment", _fail)
    assert ham_to_universe(e, 1) == expected


def test_sampled_matching_refuses_when_neither_solver_fits(monkeypatch):
    e = gen_k_party(10, 40, 2)
    monkeypatch.setattr(divpol, "_SAMPLES_PER_VOTER", 2)
    # dense: 8 * 80 * (80 + 2 distinct ballots) = 52480 bytes;
    # LP: 1200 * 2 distinct ballots * 80 draws = 192000
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 8 * 80 * 82 - 1)
    with pytest.raises(ValueError, match=r"out_div of 40 voters needs a 80x80 cost matrix"):
        ham_to_universe(e, 0)
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 8 * 80 * 82)
    assert ham_to_universe(e, 0) > 0.0


def test_dense_estimate_counts_the_first_repeat(monkeypatch):
    # the 80 x 2 first repeat is alive while the 80 x 80 cost is built, so a
    # cap that holds the cost alone (and not the LP) is too small
    e = gen_k_party(10, 40, 2)
    monkeypatch.setattr(divpol, "_SAMPLES_PER_VOTER", 2)
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 8 * 80 * 80)
    with pytest.raises(ValueError, match=r"needs a 80x80 cost matrix \(0\.0 GiB\)"):
        divpol.check_out_div_size(e)
    # the assignment's traced peak holds both arrays
    import tracemalloc

    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 1 << 30)
    monkeypatch.setattr(divpol, "_LP_CELL_RATIO", math.inf)  # always the assignment
    repeat = np.repeat

    def traced_repeat(*args, **kwargs):
        out = repeat(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[0])
        return out

    peaks: list = []
    monkeypatch.setattr(divpol.np, "repeat", traced_repeat)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ham_to_universe(e, 0)
    finally:
        tracemalloc.stop()
    assert peaks[-1] - base >= 8 * 80 * 82


LP_IN_A_FRESH_PROCESS = """
import json, sys
from approvaldap import divpol
from approvaldap.core import Election
loaded = []
transport = divpol._transport
def traced(*args):
    loaded.append("scipy.optimize" in sys.modules)
    value = transport(*args)
    loaded.append("scipy.optimize" in sys.modules)
    return value
divpol._transport = traced
e = Election([[1, 0, 1]] * 20)
print(json.dumps({"value": divpol.out_div(e, 3), "loaded": loaded}))
"""


def test_lp_path_imports_scipy_optimize_only_when_it_runs():
    # one distinct ballot among 20 voters: the LP has at most 8 variables
    # against the assignment's 100 x 100 cells, so the ratio rule picks it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", LP_IN_A_FRESH_PROCESS],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    result = json.loads(out.stdout)
    assert result["loaded"] == [False, True]
    e = Election([[1, 0, 1]] * 20)
    p = 2 / 3
    want = 1.0 - assignment_ham_to_universe(e, 3) / (2.0 * p * (1.0 - p))
    assert result["value"] == min(1.0, max(0.0, want))


def test_ham_to_universe_single_ballot_closed_form():
    # one distinct ballot: the matching is forced, so the exact-universe
    # distance must equal the closed-form single-ballot value
    e = Election([[1, 1, 0, 0, 0]] * 3)
    p = stats(e).satr
    assert exact_ham_to_universe(e) == pytest.approx(
        ham_single_to_unc(p, 2 / 5), abs=1e-12
    )


def test_sampled_estimator_tracks_exact_value(rng, monkeypatch):
    monkeypatch.setattr(divpol, "_SAMPLES_PER_VOTER", 200)
    for _ in range(5):
        e = make_random_election(rng, max_m=6, max_n=4)
        total = e.total_approvals()
        if total in (0, e.num_voters * e.num_candidates):
            continue
        exact = exact_out_div(e)
        sampled = out_div(e, seed=5)
        assert sampled == pytest.approx(exact, abs=0.08)


def test_div_pol_stable_under_permutations(rng):
    # the heuristics are only seed-equivariant, so exact invariance is not
    # expected; at working election sizes the drift stays within 0.02
    for _ in range(5):
        m = int(rng.integers(30, 61))
        n = int(rng.integers(30, 61))
        mat = (rng.random((n, m)) < rng.uniform(0.15, 0.85)).astype(np.uint8)
        e = Election(mat)
        shuffled = Election(mat[rng.permutation(n)][:, rng.permutation(m)])
        assert pcc_div(shuffled, seed=3) == pytest.approx(pcc_div(e, seed=3), abs=0.02)
        assert cntr_pol(shuffled, seed=3) == pytest.approx(cntr_pol(e, seed=3), abs=0.02)


@pytest.mark.parametrize(
    "div, pol, agr, name",
    [
        (cntr_div, cntr_pol, cntr_agr, "kmedoids_hamming"),
        (pcc_div, pcc_pol, pcc_agr, "spectral_pcc"),
    ],
)
def test_div_and_pol_share_the_two_cluster_term(monkeypatch, rng, div, pol, agr, name):
    calls = []
    clusterer = getattr(divpol, name)

    def counted(e, k, seed):
        calls.append((k, seed))
        return clusterer(e, k, seed)

    monkeypatch.setattr(divpol, name, counted)
    mat = (rng.random((40, 12)) < 0.4).astype(np.uint8)
    e = Election(mat)
    values = (div(e, seed=3), pol(e, seed=3))
    assert calls == [(2, 3), (3, 3), (4, 3), (5, 3)]  # k-clusterings 2..5, k = 2 once
    assert pol(e, seed=4) >= 0.0
    assert calls[4:] == [(2, 4)]  # another seed recomputes
    e.clear_cache()
    assert pol(e, seed=3) == values[1]
    assert calls[5:] == [(2, 3)]  # the memo went with the cache
    fresh = Election(mat)
    assert (div(fresh, seed=3), pol(fresh, seed=3)) == values
    base = agr(fresh)
    two = agr(fresh, clusterer(fresh, 2, 3))
    assert values[1] == min(1.0, max(two, base) - base)


def test_spectral_path_and_matching_share_the_distinct_ballots(monkeypatch, rng):
    calls = []
    compute = core.distinct_rows

    def counted(matrix):
        calls.append(matrix)
        return compute(matrix)

    monkeypatch.setattr(core, "distinct_rows", counted)
    e = Election((rng.random((30, 9)) < 0.4).astype(np.uint8))
    spectral_pcc(e, 3, seed=1)
    shared = e.distinct_ballots()
    ham_to_universe(e)
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 1)  # past the dense check
    with pytest.raises(ValueError):
        divpol.check_out_div_size(e)
    assert e.distinct_ballots() is shared
    assert len(calls) == 1 and calls[0] is e.matrix
