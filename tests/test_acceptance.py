"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight map
corpus is computed once (module fixture) and shared by the criteria that
need it.
"""

import hashlib
import io as _stdio
import itertools
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from approvaldap.agreement import (
    cntr_agr,
    pair_agr,
    pcc_agr,
    pccplus_agr,
)
from approvaldap.cli import main as cli_main
from approvaldap.core import Election
from approvaldap.divpol import out_div
from approvaldap.experiments import (
    complementarity,
    compass_specs,
    index_table,
    resampling_experiment,
)
from approvaldap.generators import gen_k_party, gen_triangle
from approvaldap.io import ParseError, parse_pabulib

from conftest import ACCEPTANCE_LINES
from oracles import cntr_agr_closed_form, exact_out_div, pair_agr_naive
from test_divpol import _oracle_out_div
from test_experiments import kendall_tau_b_brute

DATA = Path(__file__).parent / "data"


def report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:02d}: {status}  {detail}"
    print("\n" + line)
    ACCEPTANCE_LINES.append(line)


def random_election(rng, max_m=20, max_n=20) -> Election:
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    mat = (rng.random((n, m)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
    return Election(mat)


# ---------------------------------------------------------------------------
# criterion 1: index-value table reproduction (60x60, 10 samples)
# ---------------------------------------------------------------------------

# per row: index -> (reference mean, reference std)
REFERENCE_TABLE = {
    "1/3-ID": {
        "av_agr": (1.00, 0.00), "cntr_agr": (1.00, 0.00), "pair_agr": (1.00, 0.00),
        "pcc_agr": (1.00, 0.00), "jacc_agr": (1.00, 0.00), "pccplus_agr": (1.00, 0.00),
        "cntr_div": (0.00, 0.00), "pcc_div": (0.00, 0.00), "out_div": (0.00, 0.00),
        "cntr_pol": (0.00, 0.00), "pcc_pol": (0.00, 0.00), "pair_pol": (0.00, 0.00),
    },
    "2-Party": {
        "av_agr": (0.00, 0.00), "cntr_agr": (0.00, 0.00), "pair_agr": (0.00, 0.00),
        "pcc_agr": (0.00, 0.00), "jacc_agr": (0.50, 0.00), "pccplus_agr": (0.50, 0.00),
        "cntr_div": (0.20, 0.00), "pcc_div": (0.25, 0.02), "out_div": (0.10, 0.00),
        "cntr_pol": (1.00, 0.00), "pcc_pol": (1.00, 0.00), "pair_pol": (1.00, 0.00),
    },
    "N(2-Party,0.6)": {
        "av_agr": (0.09, 0.01), "cntr_agr": (0.08, 0.01), "pair_agr": (0.01, 0.00),
        "pcc_agr": (0.02, 0.00), "jacc_agr": (0.35, 0.01), "pccplus_agr": (0.10, 0.01),
        "cntr_div": (0.66, 0.02), "pcc_div": (0.82, 0.01), "out_div": (0.29, 0.00),
        "cntr_pol": (0.25, 0.10), "pcc_pol": (0.17, 0.01), "pair_pol": (0.24, 0.01),
    },
    "3-Party": {
        "av_agr": (0.33, 0.00), "cntr_agr": (0.00, 0.00), "pair_agr": (0.00, 0.00),
        "pcc_agr": (0.00, 0.00), "jacc_agr": (0.33, 0.00), "pccplus_agr": (0.33, 0.00),
        "cntr_div": (0.33, 0.00), "pcc_div": (0.31, 0.01), "out_div": (0.13, 0.00),
        "cntr_pol": (0.33, 0.00), "pcc_pol": (0.50, 0.00), "pair_pol": (0.63, 0.00),
    },
    "4-Party": {
        "av_agr": (0.50, 0.00), "cntr_agr": (0.00, 0.00), "pair_agr": (0.00, 0.00),
        "pcc_agr": (0.00, 0.00), "jacc_agr": (0.25, 0.00), "pccplus_agr": (0.25, 0.00),
        "cntr_div": (0.47, 0.04), "pcc_div": (0.40, 0.00), "out_div": (0.15, 0.00),
        "cntr_pol": (0.25, 0.00), "pcc_pol": (0.33, 0.00), "pair_pol": (0.43, 0.00),
    },
    "(1/3,1/3)-2-Party": {
        "av_agr": (0.33, 0.00), "cntr_agr": (0.24, 0.00), "pair_agr": (0.10, 0.00),
        "pcc_agr": (0.11, 0.00), "jacc_agr": (0.56, 0.00), "pccplus_agr": (0.56, 0.00),
        "cntr_div": (0.15, 0.00), "pcc_div": (0.18, 0.00), "out_div": (0.09, 0.00),
        "cntr_pol": (0.76, 0.00), "pcc_pol": (0.89, 0.00), "pair_pol": (0.99, 0.00),
    },
    "Cyclic": {
        "av_agr": (0.00, 0.00), "cntr_agr": (0.00, 0.00), "pair_agr": (0.00, 0.00),
        "pcc_agr": (0.00, 0.00), "jacc_agr": (0.39, 0.00), "pccplus_agr": (0.25, 0.00),
        "cntr_div": (0.46, 0.00), "pcc_div": (0.57, 0.01), "out_div": (0.22, 0.00),
        "cntr_pol": (0.50, 0.00), "pcc_pol": (0.33, 0.00), "pair_pol": (0.58, 0.00),
    },
    "Diagonal": {
        "av_agr": (0.97, 0.00), "cntr_agr": (0.00, 0.00), "pair_agr": (0.00, 0.00),
        "pcc_agr": (0.00, 0.00), "jacc_agr": (0.02, 0.00), "pccplus_agr": (0.02, 0.00),
        "cntr_div": (0.97, 0.00), "pcc_div": (0.97, 0.00), "out_div": (0.63, 0.01),
        "cntr_pol": (0.02, 0.00), "pcc_pol": (0.02, 0.00), "pair_pol": (0.01, 0.00),
    },
    "Triangle": {
        "av_agr": (0.50, 0.00), "cntr_agr": (0.49, 0.00), "pair_agr": (0.33, 0.00),
        "pcc_agr": (0.50, 0.00), "jacc_agr": (0.51, 0.00), "pccplus_agr": (0.50, 0.00),
        "cntr_div": (0.41, 0.00), "pcc_div": (0.32, 0.00), "out_div": (0.18, 0.00),
        "cntr_pol": (0.01, 0.00), "pcc_pol": (0.14, 0.00), "pair_pol": (0.47, 0.00),
    },
    "N(Triangle,0.6)": {
        "av_agr": (0.21, 0.01), "cntr_agr": (0.20, 0.02), "pair_agr": (0.06, 0.00),
        "pcc_agr": (0.15, 0.02), "jacc_agr": (0.33, 0.01), "pccplus_agr": (0.17, 0.02),
        "cntr_div": (0.89, 0.01), "pcc_div": (0.77, 0.03), "out_div": (0.26, 0.00),
        "cntr_pol": (0.00, 0.02), "pcc_pol": (0.05, 0.00), "pair_pol": (0.39, 0.01),
    },
    "1/2-ID/IC": {
        "av_agr": (0.50, 0.01), "cntr_agr": (0.49, 0.01), "pair_agr": (0.26, 0.01),
        "pcc_agr": (0.25, 0.01), "jacc_agr": (0.51, 0.00), "pccplus_agr": (0.30, 0.00),
        "cntr_div": (0.41, 0.01), "pcc_div": (0.50, 0.00), "out_div": (0.19, 0.00),
        "cntr_pol": (0.07, 0.01), "pcc_pol": (0.26, 0.02), "pair_pol": (0.45, 0.01),
    },
    "1/2-IC": {
        "av_agr": (0.10, 0.01), "cntr_agr": (0.10, 0.01), "pair_agr": (0.02, 0.00),
        "pcc_agr": (0.02, 0.00), "jacc_agr": (0.34, 0.01), "pccplus_agr": (0.07, 0.00),
        "cntr_div": (0.81, 0.01), "pcc_div": (0.91, 0.00), "out_div": (0.29, 0.00),
        "cntr_pol": (0.07, 0.01), "pcc_pol": (0.05, 0.00), "pair_pol": (0.18, 0.00),
    },
    "1/4-IC": {
        "av_agr": (0.49, 0.01), "cntr_agr": (0.00, 0.00), "pair_agr": (0.02, 0.00),
        "pcc_agr": (0.02, 0.00), "jacc_agr": (0.16, 0.00), "pccplus_agr": (0.07, 0.00),
        "cntr_div": (0.97, 0.00), "pcc_div": (0.90, 0.00), "out_div": (0.31, 0.00),
        "cntr_pol": (0.01, 0.01), "pcc_pol": (0.05, 0.00), "pair_pol": (0.16, 0.00),
    },
    "Lin-IC": {
        "av_agr": (0.08, 0.01), "cntr_agr": (0.06, 0.01), "pair_agr": (0.01, 0.00),
        "pcc_agr": (0.09, 0.02), "jacc_agr": (0.31, 0.01), "pccplus_agr": (0.15, 0.03),
        "cntr_div": (0.96, 0.01), "pcc_div": (0.83, 0.03), "out_div": (0.27, 0.00),
        "cntr_pol": (0.00, 0.01), "pcc_pol": (0.04, 0.00), "pair_pol": (0.37, 0.01),
    },
}

DETERMINISTIC_ROWS = {
    "1/3-ID", "2-Party", "3-Party", "4-Party", "(1/3,1/3)-2-Party",
    "Cyclic", "Diagonal", "Triangle",
}
EXACT_INDICES = ("av_agr", "cntr_agr", "pair_agr", "pcc_agr", "jacc_agr", "pccplus_agr", "pair_pol")
CLUSTER_INDICES = ("cntr_div", "pcc_div", "cntr_pol", "pcc_pol")
EPS = 1e-9


def test_criterion_01_index_table_reproduction():
    start = time.monotonic()
    table = index_table(compass_specs(), samples=10, seed=42)
    elapsed = time.monotonic() - start

    deviations = []
    for label, reference in REFERENCE_TABLE.items():
        computed = table.row(label)
        stochastic = label not in DETERMINISTIC_ROWS
        for index, (ref_mean, ref_std) in reference.items():
            mean = computed[index][0]
            if index == "out_div":
                band = max(3 * ref_std, 0.05) if stochastic else 0.05
                ok = abs(mean - ref_mean) <= band + EPS
            elif stochastic:
                ok = abs(mean - ref_mean) <= max(3 * ref_std, 0.03) + EPS
            elif index in EXACT_INDICES:
                ok = abs(round(mean, 2) - ref_mean) <= EPS
            else:
                assert index in CLUSTER_INDICES
                ok = abs(mean - ref_mean) <= 0.05 + EPS
            if not ok:
                deviations.append(f"{label}/{index}: got {mean:.4f}, reference {ref_mean:.2f}")

    ok = not deviations and elapsed <= 300
    report(1, ok, f"14-row table in {elapsed:.0f}s; deviations: {deviations or 'none'}")
    assert elapsed <= 300, f"table reproduction took {elapsed:.0f}s"
    assert not deviations, "table cells off reference: " + "; ".join(deviations)


def test_criterion_02_pairwise_agreement_rearrangement():
    rng = np.random.default_rng(2)
    checked = 0
    worst = 0.0
    while checked < 500:
        kind = checked % 10
        if kind == 8:  # one lone approval: saturation right above 0
            m, n = int(rng.integers(2, 31)), int(rng.integers(1, 31))
            mat = np.zeros((n, m), dtype=np.uint8)
            mat[int(rng.integers(n)), int(rng.integers(m))] = 1
            e = Election(mat)
        elif kind == 9:  # one lone disapproval: saturation right below 1
            m, n = int(rng.integers(2, 31)), int(rng.integers(1, 31))
            mat = np.ones((n, m), dtype=np.uint8)
            mat[int(rng.integers(n)), int(rng.integers(m))] = 0
            e = Election(mat)
        else:
            e = random_election(rng, 30, 30)
        if e.total_approvals() in (0, e.num_voters * e.num_candidates):
            continue
        fast, naive = pair_agr(e), pair_agr_naive(e)
        worst = max(worst, abs(fast - naive) / max(1.0, abs(naive)))
        assert abs(fast - naive) <= 1e-12 * max(1.0, abs(naive))
        checked += 1
    report(2, True, f"500 elections, worst relative gap {worst:.2e}")


def test_criterion_03_central_agreement_closed_form():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 500:
        e = random_election(rng, 25, 25)
        if e.total_approvals() in (0, e.num_voters * e.num_candidates):
            continue
        assert cntr_agr_closed_form(e) == cntr_agr(e)
        checked += 1
    report(3, True, "500 elections, bit-identical values")


def test_criterion_04_party_pcc_values():
    worst = 0.0
    for k in (2, 3, 4, 5, 6):
        for scale in (1, 2):
            m = n = 60 * scale
            e = gen_k_party(m, n, k)
            worst = max(worst, abs(pcc_agr(e)), abs(pccplus_agr(e) - 1 / k))
            assert abs(pcc_agr(e)) <= 1e-12
            assert abs(pccplus_agr(e) - 1 / k) <= 1e-12
    report(4, True, f"k in 2..6 at 60 and 120; worst error {worst:.2e}")


def test_criterion_05_equal_length_equivalence_and_triangle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(6, 41))
        n = int(rng.integers(2, 26))
        length = m // 3
        rows = np.zeros((n, m), dtype=np.uint8)
        for i in range(n):
            rows[i, rng.choice(m, length, replace=False)] = 1
        e = Election(rows)
        gap = abs(pcc_agr(e) - pair_agr(e))
        worst = max(worst, gap)
        assert gap <= 1e-10
    tri = gen_triangle(60)
    assert round(pcc_agr(tri), 2) == 0.50
    assert round(pair_agr(tri), 2) == 0.33
    report(5, True, f"200 fixed-length elections, worst gap {worst:.2e}; triangle 0.50 vs 0.33")


def test_criterion_06_range_properties():
    rng = np.random.default_rng(6)
    for trial in range(2000):
        if trial % 100 == 0:
            m, n = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            mat = np.full((n, m), trial % 200 == 0, dtype=np.uint8)
            e = Election(mat)  # all-zero and all-one extremes
        else:
            e = random_election(rng, 10, 10)
        a = pcc_agr(e)
        d = out_div(e, seed=66)
        assert 0.0 <= a <= 1.0
        assert 0.0 <= d <= 1.0
    report(6, True, "2000 fuzzed elections inside [0,1] for pcc agreement and outer diversity")


def test_criterion_07_outer_diversity_oracles():
    # closed-form single-ballot distance vs exhaustive weighted enumeration
    worst = 0.0
    from approvaldap.divpol import ham_single_to_unc

    for m in (5, 10):
        codes = np.arange(2**m)
        universe = ((codes[:, None] >> np.arange(m)) & 1).astype(np.int64)
        ones = universe.sum(axis=1)
        for pi in range(11):
            p = pi / 10
            weights = p**ones * (1 - p) ** (m - ones)
            for qcount in range(m + 1):
                ballot = np.concatenate([np.ones(qcount, np.int64), np.zeros(m - qcount, np.int64)])
                dists = np.abs(universe - ballot).sum(axis=1)
                expected = float(weights @ dists) / m
                got = ham_single_to_unc(p, qcount / m)
                worst = max(worst, abs(got - expected))
                assert abs(got - expected) <= 1e-12

    # exact transportation against an independent integer network-simplex oracle
    networkx = pytest.importorskip("networkx")
    checked = 0
    worst_div = 0.0
    for m in range(1, 5):
        for n in range(1, 4):
            for ballots in itertools.product(range(2**m), repeat=n):
                mat = ((np.array(ballots)[:, None] >> np.arange(m)) & 1).astype(np.uint8)
                e = Election(mat)
                total = e.total_approvals()
                if total in (0, n * m):
                    assert exact_out_div(e) == 0.0
                    continue
                got = exact_out_div(e)
                expected = _oracle_out_div(e, networkx)
                worst_div = max(worst_div, abs(got - expected))
                assert abs(got - expected) <= 1e-9
                checked += 1
    report(7, True, f"closed-form gap {worst:.2e}; {checked} exact matchings, worst gap {worst_div:.2e}")


def test_criterion_08_resampling_saturation_independence():
    start = time.monotonic()
    spreads = {}
    for index in ("pair_agr", "pcc_agr", "pccplus_agr", "av_agr", "jacc_agr"):
        matrix = resampling_experiment(index, m=60, n=60, samples=10, seed=8)
        spreads[index] = matrix.column_spread()
        if index == "pair_agr":
            assert (matrix.values[:, 0] == 1.0).all()
            assert (np.diff(matrix.values, axis=1) <= 0.02).all()
    elapsed = time.monotonic() - start

    independent = {k: float(spreads[k].max()) for k in ("pair_agr", "pcc_agr", "pccplus_agr")}
    dependent = {k: float(spreads[k].max()) for k in ("av_agr", "jacc_agr")}
    ok = all(v <= 0.05 for v in independent.values()) and all(v >= 0.15 for v in dependent.values())
    report(
        8,
        ok and elapsed <= 600,
        f"max column spreads: independent {independent}, dependent {dependent}; {elapsed:.0f}s",
    )
    for name, value in independent.items():
        assert value <= 0.05, f"{name} fails saturation independence: spread {value:.3f}"
    for name, value in dependent.items():
        assert value >= 0.15, f"{name} unexpectedly saturation-independent: spread {value:.3f}"
    assert elapsed <= 600


# ---------------------------------------------------------------------------
# criteria 9 and 10 share the bundled synthetic map run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_map(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("map")
    start = time.monotonic()
    buf = _stdio.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["map", "--synthetic", "--out-dir", str(out_dir)])
    elapsed = time.monotonic() - start
    assert code == 0, buf.getvalue()

    def read_csv(name):
        import csv as _csv

        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            rows = list(_csv.reader(fh))
        return rows[0], rows[1:]

    _, feature_rows = read_csv("map_features.csv")
    labels = [row[0] for row in feature_rows]
    groups = [row[1] for row in feature_rows]
    features = np.array([[float(v) for v in row[2:5]] for row in feature_rows])
    _, dist_rows = read_csv("map_distances.csv")
    distances = np.array([[float(v) for v in row[1:]] for row in dist_rows])
    _, emb_rows = read_csv("map_embedding.csv")
    points = np.array([[float(row[2]), float(row[3])] for row in emb_rows])
    svg = (out_dir / "map.svg").read_text()
    reported = None
    for line in buf.getvalue().splitlines():
        if line.startswith("mean multiplicative distortion:"):
            reported = float(line.split(":")[1])
    return {
        "labels": labels,
        "groups": groups,
        "features": features,
        "distances": distances,
        "points": points,
        "svg": svg,
        "elapsed": elapsed,
        "reported_distortion": reported,
        "out_dir": out_dir,
    }


def test_criterion_09_map_distortion_and_extremes(synthetic_map):
    labels = synthetic_map["labels"]
    distances = synthetic_map["distances"]
    points = synthetic_map["points"]
    n = len(labels)
    assert n == 244
    assert synthetic_map["svg"].count("<circle") == 244

    # recompute the distortion from the emitted artifacts
    diff = points[:, None, :] - points[None, :, :]
    emb = np.sqrt((diff**2).sum(axis=2))
    iu = np.triu_indices(n, 1)
    mask = distances[iu] > 1e-9
    ratios = np.maximum(emb[iu][mask] / distances[iu][mask], distances[iu][mask] / emb[iu][mask])
    distortion = float(ratios.mean())
    reported = synthetic_map["reported_distortion"]
    assert reported is not None and abs(reported - distortion) < 1e-4

    vals = np.sort(distances[iu])
    cutoff = vals[int(math.floor(0.95 * (vals.size - 1)))]
    extremes = [labels.index("1/3-ID"), labels.index("1/2-IC"), labels.index("2-Party")]
    pairs_ok = all(
        distances[a, b] >= cutoff for a, b in itertools.combinations(extremes, 2)
    )
    elapsed = synthetic_map["elapsed"]
    ok = distortion <= 1.05 and pairs_ok and elapsed <= 1800
    report(9, ok, f"distortion {distortion:.4f} (<=1.05), extremes in top 5%: {pairs_ok}, {elapsed:.0f}s")
    assert distortion <= 1.05
    assert pairs_ok
    assert elapsed <= 1800


def test_criterion_10_complementarity(synthetic_map):
    x = np.array([0.0] * 32 + [1.0] * 32)
    assert complementarity(x, x, x) == 0.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.random(50)
        assert abs(complementarity(a, a, a)) <= 1e-12
    u = rng.integers(0, 100, 64) / 128
    v = rng.integers(0, 100, 64) / 128
    w = 2.0 - u - v
    assert complementarity(u, v, w) == 1.0

    features = synthetic_map["features"]
    value = complementarity(features[:, 0], features[:, 1], features[:, 2])
    ok = value > 0.85
    report(10, ok, f"identity 0, constant-sum 1; corpus triple complementarity {value:.4f} (> 0.85)")
    assert value > 0.85


# map_distances.csv (545 KB) is a function of the features, so a digest pins it
MAP_DISTANCES_SHA256 = "c1b9c8bf4fc987ee7ffa6652d60d127664af1de16b8b6d5c832ffbad5657ed4d"


def test_synthetic_map_matches_golden(synthetic_map):
    out_dir = synthetic_map["out_dir"]
    for name in ("map_features.csv", "map_embedding.csv", "map.svg"):
        assert (out_dir / name).read_bytes() == (DATA / "golden" / "paper" / name).read_bytes(), name
    digest = hashlib.sha256((out_dir / "map_distances.csv").read_bytes()).hexdigest()
    assert digest == MAP_DISTANCES_SHA256


def test_criterion_11_kendall_tau_brute_force():
    rng = np.random.default_rng(11)
    from approvaldap.experiments import correlations

    columns = []
    for _ in range(50):
        n = int(rng.integers(10, 201))
        scale = int(rng.integers(2, 12))
        columns.append(rng.integers(0, scale, n).astype(float))
    worst = 0.0
    compared = 0
    for a, b in zip(columns[0::2], columns[1::2]):
        n = min(len(a), len(b))
        x, y = a[:n], b[:n]
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        _, tau = correlations(np.column_stack([x, y]))
        brute = kendall_tau_b_brute(x, y)
        worst = max(worst, abs(tau[0, 1] - brute))
        assert abs(tau[0, 1] - brute) <= 1e-12
        compared += 1
    report(11, True, f"{compared} column pairs, worst gap {worst:.2e}")


def test_criterion_12_pabulib_golden_files_and_fuzz():
    golden = sorted(DATA.glob("*.pb"))
    assert len(golden) >= 5

    parsed = 0
    rejected = 0
    for path in golden:
        try:
            e = parse_pabulib(path.read_bytes())
            assert e.num_voters >= 1
            parsed += 1
        except ParseError:
            rejected += 1
    assert parsed >= 4 and rejected >= 3  # suite includes malformed cases

    corpus = [path.read_bytes() for path in golden]
    rng = np.random.default_rng(12)
    deadline = time.monotonic() + 60.0
    iterations = 0
    while time.monotonic() < deadline:
        mode = iterations % 3
        if mode == 0:
            blob = bytes(rng.integers(0, 256, int(rng.integers(0, 400)), dtype=np.uint8))
        else:
            blob = bytearray(corpus[int(rng.integers(len(corpus)))])
            for _ in range(int(rng.integers(1, 12))):
                action = int(rng.integers(3))
                if action == 0 and blob:
                    blob[int(rng.integers(len(blob)))] = int(rng.integers(256))
                elif action == 1:
                    blob.insert(int(rng.integers(len(blob) + 1)), int(rng.integers(256)))
                elif blob:
                    del blob[int(rng.integers(len(blob)))]
            blob = bytes(blob)
        try:
            parse_pabulib(blob)
        except ParseError:
            pass
        iterations += 1
    report(12, True, f"{parsed} parsed + {rejected} rejected golden files; {iterations} fuzz inputs, no crash")
