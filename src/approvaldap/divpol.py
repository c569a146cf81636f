"""Diversity and polarization indices.

Diversity is measured two ways: by how little agreement survives after
clustering voters into up to five like-minded groups (``a``-diversity for
an agreement index ``a``), and by how close the election sits to the
saturation-matched universe of all ballots (outer diversity).
Polarization is the agreement gained by splitting the voters into two
groups, plus a distance-spread variant based on the standard deviation of
pairwise Hamming distances.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._solvers import linear_sum_assignment
from .agreement import cntr_agr, pcc_agr
from .clustering import kmedoids_hamming, spectral_pcc
from .core import Election, distinct_rows, seeded_streams
from .metrics import cross_hamming

__all__ = [
    "a_div",
    "a_pol",
    "cntr_div",
    "pcc_div",
    "cntr_pol",
    "pcc_pol",
    "pair_pol",
    "ham_single_to_unc",
    "ham_to_universe",
    "check_out_div_size",
    "out_div",
]

_DIV_MAX_CLUSTERS = 5
_SAMPLE_STREAM = 0x0D1F
# reference ballots drawn per voter for the sampled universe
_SAMPLES_PER_VOTER = 5
# memory cap on the sampled matching, whichever solver runs it
_MATCHING_MAX_BYTES = 1 << 30
# peak HiGHS memory per transportation-LP variable (1.15-1.28 kB measured
# at 2e5 and 8e5 variables)
_LP_BYTES_PER_VARIABLE = 1200
# the sampled matching runs as the LP over distinct ballots when that LP has
# this many times fewer variables than the dense assignment has cells.  At
# 5000 draws (draws as the assignment's rows, one BLAS thread) the LP took
# 0.14-1.72 s against 0.97-2.80 s from 528x to 2441x fewer, about as long at
# 372x and 493x, and longer below: 4.0-4.5 s against 1.4-2.5 s at 235x and
# 247x, 84 s against 1.8 s at 123x.  The margin above the crossover keeps
# clear of the LP's steep side.
_LP_CELL_RATIO = 1000

Clusterer = Callable[[Election, int, int], np.ndarray]


def _cluster_agreement(e: Election, agr, clusterer: Clusterer, k: int, seed: int) -> float:
    """``agr(e, clusterer(e, k, seed))``, memoised on the election so that
    diversity and polarization share their k = 2 term."""
    return e._cache(
        ("cluster_agreement", agr, clusterer, k, seed),
        lambda: agr(e, clusterer(e, k, seed)),
    )


def a_div(e: Election, agr, clusterer: Clusterer, seed: int) -> float:
    """Clustering-based diversity: one minus the mean best within-cluster
    agreement over cluster counts 1..5 (the count-1 term is ``agr(e)``).

    ``agr`` is called both as ``agr(e)`` and as ``agr(e, labels)``, the
    cluster-size-weighted mean over the clusters of ``labels``.  The k = 2
    term is the one :func:`a_pol` scores; it is computed once per election,
    agreement, clusterer and seed.
    """
    values = [agr(e)]
    for k in range(2, _DIV_MAX_CLUSTERS + 1):
        values.append(_cluster_agreement(e, agr, clusterer, k, seed))
    return min(1.0, max(0.0, 1.0 - sum(values) / _DIV_MAX_CLUSTERS))


def a_pol(e: Election, agr, clusterer: Clusterer, seed: int) -> float:
    """Clustering-based polarization: agreement gain of the best found
    2-partition over the whole election.

    The trivial single-block partition is always a candidate, so the value
    is nonnegative before clamping.  ``agr`` is called both as ``agr(e)``
    and as ``agr(e, labels)``.  The 2-partition's agreement is the k = 2
    term of :func:`a_div`, shared through the election's memo.
    """
    base = agr(e)
    best = max(_cluster_agreement(e, agr, clusterer, 2, seed), base)
    return min(1.0, best - base)


def cntr_div(e: Election, seed: int = 0) -> float:
    """Central diversity: :func:`a_div` with central agreement and k-medoids."""
    return a_div(e, cntr_agr, kmedoids_hamming, seed)


def pcc_div(e: Election, seed: int = 0) -> float:
    """PCC diversity: :func:`a_div` with PCC agreement and spectral clustering."""
    return a_div(e, pcc_agr, spectral_pcc, seed)


def cntr_pol(e: Election, seed: int = 0) -> float:
    """Central polarization: :func:`a_pol` with central agreement and k-medoids."""
    return a_pol(e, cntr_agr, kmedoids_hamming, seed)


def pcc_pol(e: Election, seed: int = 0) -> float:
    """PCC polarization: :func:`a_pol` with PCC agreement and spectral clustering."""
    return a_pol(e, pcc_agr, spectral_pcc, seed)


def pair_pol(e: Election) -> float:
    """Pairwise polarization: ``2/m`` times the population standard
    deviation of Hamming distances over all ordered ballot pairs.

    Both moments come from candidate co-occurrence, with no n x n matrix:
    with ``G = X^T X`` and approval counts ``s``, the distance sum is
    ``2 sum_c s_c (n - s_c)``, and the squared-distance sum is
    ``2 sum_{c,d} (n11 n00 + n10 n01)``, the ordered voter pairs that
    differ on both ``c`` and ``d``, where ``n11 = G``, ``n10 = s_c - G``,
    ``n01 = s_d - G`` and ``n00 = n - s_c - s_d + G``.  All of it is
    integer arithmetic, so the value is that of the Hamming-matrix form.
    """
    n, m = e.num_voters, e.num_candidates
    x = e.matrix.astype(np.float64)
    n11 = (x.T @ x).astype(np.int64)  # exact: each entry is a count <= n
    s = e.approval_counts()
    n10 = s[:, None] - n11
    n01 = s[None, :] - n11
    n00 = n - s[:, None] - n01
    s1 = 2 * int((s * (n - s)).sum())
    s2 = 2 * int((n11 * n00 + n10 * n01).sum())
    var_numer = n * n * s2 - s1 * s1
    return 2.0 * math.sqrt(var_numer) / (n * n * m)


def ham_single_to_unc(p: float, q: float) -> float:
    """Per-candidate distance of one ballot with a ``q`` fraction of ones
    to the ``p``-weighted ballot universe: ``p(1-q) + q(1-p)``."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    return p * (1.0 - q) + q * (1.0 - p)


def _transport(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> float:
    """Optimal value of the transportation problem (min-cost coupling)."""
    # slow to import, and only this rare path needs them
    import scipy.sparse
    from scipy.optimize import linprog

    r, c = cost.shape
    if supply.shape != (r,) or demand.shape != (c,):
        raise ValueError("supply/demand shapes do not match the cost matrix")
    row_idx = np.repeat(np.arange(r), c)
    col_idx = np.tile(np.arange(c), r) + r
    var_idx = np.arange(r * c)
    a_eq = scipy.sparse.coo_matrix(
        (
            np.ones(2 * r * c),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx])),
        ),
        shape=(r + c, r * c),
    ).tocsr()
    b_eq = np.concatenate([supply, demand]).astype(np.float64)
    res = linprog(cost.ravel().astype(np.float64), A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation solve failed: {res.message}")
    return float(res.fun)


def ham_to_universe(e: Election, seed: int = 0) -> float:
    """Per-candidate optimal-matching distance of the election's ballots to
    ``_SAMPLES_PER_VOTER`` seeded draws per voter from the
    saturation-weighted ballot universe.

    The universe weights each ballot by its probability under independent
    approvals with the election's saturation; the draws sample it.  The
    matching of the repeated ballots to the repeated draws is solved as an
    assignment problem, or as a transportation LP over the distinct ones
    when ballots repeat so much that the LP is far smaller (both reach the
    same integral optimum).  The assignment's square cost has the repeated
    draws as rows and the repeated ballots as columns; it is expanded from
    the distinct pairs' Hamming distances by one ``np.repeat`` per axis, so
    no intermediate is larger than it.  The optimum is an integer, the same
    in either orientation, and ``linear_sum_assignment`` finds it faster
    with the draws as rows.
    """
    n, m = e.num_voters, e.num_candidates
    total = e.total_approvals()
    if total in (0, n * m):
        return 0.0
    p = total / (n * m)

    check_out_div_size(e)
    ballots, _, counts = e.distinct_ballots()
    n_samples = _SAMPLES_PER_VOTER * n
    rng = seeded_streams(seed)(_SAMPLE_STREAM)
    samples = (rng.random((n_samples, m)) < p).astype(np.uint8)
    sample_ballots, _, sample_counts = distinct_rows(samples)
    # integer supplies and demands give the transportation problem an
    # integral optimum: a one-to-one matching of the repeated ballots
    cost = cross_hamming(ballots, sample_ballots)
    n_cells = n_samples * n_samples
    dense = _dense_bytes(n_samples, len(ballots))
    if dense > _MATCHING_MAX_BYTES or _LP_CELL_RATIO * cost.size <= n_cells:
        supply = (counts * _SAMPLES_PER_VOTER).astype(np.float64)
        value = round(_transport(cost, supply, sample_counts.astype(np.float64)))
    else:
        cost = np.repeat(cost.T, sample_counts, axis=0)
        cost = np.repeat(cost, counts * _SAMPLES_PER_VOTER, axis=1)
        r, c = linear_sum_assignment(cost)
        value = int(cost[r, c].sum())
    return value / (n_samples * m)


def _dense_bytes(n_samples: int, n_distinct: int) -> int:
    """Peak float64 bytes of the assignment's cost: the ``(k*n)^2`` matrix
    and, while it is built, the ``k*n x N`` first repeat."""
    return 8 * n_samples * (n_samples + n_distinct)


def _stage_bytes(n: int, m: int, n_distinct: int) -> tuple[int, int, int]:
    """Peak bytes of :func:`out_div`'s assignment, of its transportation LP
    and of its draws, on ``n`` voters, ``m`` candidates and ``n_distinct``
    distinct ballots (see :func:`check_out_div_size`)."""
    n_samples = _SAMPLES_PER_VOTER * n
    n_draws = min(n_samples, 2**m)
    lp = _LP_BYTES_PER_VARIABLE * n_distinct * n_draws
    setup = max(9 * n_samples * m, 8 * (n_distinct + 2 * n_draws) * (m + 2))
    return _dense_bytes(n_samples, n_distinct), lp, setup


def _out_div_fit(shapes) -> int:
    """How many :func:`out_div` calls, on elections of the largest of the
    ``(voters, candidates)`` shapes, fit in ``_MATCHING_MAX_BYTES``
    together: at least 1.  A call counts as its assignment and draws, or as
    the whole limit when the assignment alone is over it."""
    peak = 1
    for n, m in shapes:
        dense, _, setup = _stage_bytes(n, m, min(n, 2**m))
        peak = max(peak, min(_MATCHING_MAX_BYTES, max(dense, setup)))
    return max(1, _MATCHING_MAX_BYTES // peak)


def check_out_div_size(e: Election) -> None:
    """Raise ``ValueError`` if :func:`out_div` would need more than
    ``_MATCHING_MAX_BYTES`` at any of its stages.

    With ``k = _SAMPLES_PER_VOTER``, ``N`` distinct ballots and at most
    ``S = min(k*n, 2^m)`` distinct draws: the assignment holds ``(k*n)^2``
    float64 costs, built from a ``k*n x N`` repeat that is alive until
    they are; the transportation LP, which runs when those are over the
    limit, has ``N*S`` variables.  Before either runs, the ``k*n x m``
    draws take 9 bytes a cell (a float64 uniform and its 0/1 comparison),
    and :func:`~approvaldap.metrics.cross_hamming` holds ``N + 2S`` rows of
    float64 Hamming factors, ``m + 2`` wide (the ballots' left factor and
    both of the draws').
    """
    n, m = e.num_voters, e.num_candidates
    if e.total_approvals() in (0, n * m):
        return
    n_samples = _SAMPLES_PER_VOTER * n
    dense, lp, setup = _stage_bytes(n, m, len(e.distinct_ballots()[0]))
    gib = 2**30
    limit = f"over the {_MATCHING_MAX_BYTES / gib:.1f} GiB limit"
    if min(dense, lp) > _MATCHING_MAX_BYTES:
        raise ValueError(
            f"out_div of {n} voters needs a {n_samples}x{n_samples} cost matrix "
            f"({dense / gib:.1f} GiB) or a transportation LP of up to {lp / gib:.1f} GiB, "
            f"{limit}; use fewer voters"
        )
    if setup > _MATCHING_MAX_BYTES:
        raise ValueError(
            f"out_div of {n} voters needs {setup / gib:.1f} GiB for its {n_samples} draws "
            f"of {m} candidates, {limit}; use fewer voters or candidates"
        )


def out_div(e: Election, seed: int = 0) -> float:
    """Outer diversity: how close the ballots come to covering the
    saturation-matched ballot universe, estimated by :func:`ham_to_universe`
    from seeded draws.

    With saturation ``p`` the distance of a single repeated ballot to the
    universe is ``2p(1-p)``, which normalizes the index to [0, 1]; a lone
    ballot scores 0 and the full weighted universe scores 1.  Elections
    with saturation 0 or 1 score 0.
    """
    n, m = e.num_voters, e.num_candidates
    total = e.total_approvals()
    if total in (0, n * m):
        return 0.0
    p = total / (n * m)
    distance = ham_to_universe(e, seed)
    return min(1.0, max(0.0, 1.0 - distance / (2.0 * p * (1.0 - p))))
