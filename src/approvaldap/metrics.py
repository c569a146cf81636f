"""Pairwise (dis)similarity of approval ballots, over arrays of ballot pairs.

Hamming distance, Jaccard similarity and the Pearson correlation
coefficient of two binary ballots (the phi coefficient) each follow from
the pair's intersection size and the two ballot lengths.  This module
computes them over arrays of intersection sizes, which the local
agreement indices, :func:`pcc_matrix` and :func:`cross_hamming` share;
the per-pair definitions are kept as test oracles.  The sizes come from
products ``A @ B.T`` of 0/1 ballot matrices, taken in float64 for BLAS
and exact, as each entry is a sum of at most ``m`` ones.
"""

from __future__ import annotations

import numpy as np

from .core import Election

__all__ = [
    "pcc_matrix",
    "pcc_weights",
    "cross_hamming",
]


def _jaccard_similarity(n11: np.ndarray, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """New array of ``1 - jaccard`` from float64 intersection sizes ``n11`` and the
    lengths ``la`` (a column) and ``lb`` of its rows and columns; empty pairs score 1."""
    sim = la + lb
    sim -= n11
    empty = sim == 0
    np.divide(n11, sim, out=sim, where=~empty)
    sim[empty] = 1.0
    return sim


def _pcc_from_counts(n11: np.ndarray, la: np.ndarray, lb: np.ndarray, m: int) -> np.ndarray:
    """PCC ``(m n11 - la lb) / sqrt(la (m - la) lb (m - lb))`` written into ``n11``
    (see :func:`_jaccard_similarity`), a constant ballot scoring 1 against all;
    one sqrt of the product keeps identical ballots at exactly 1."""
    spread_a, spread_b = la * (m - la), lb * (m - lb)
    out = n11
    out *= m
    den = la * lb  # the one temporary the size of n11
    out -= den
    # a constant ballot's spread is 0; any other is at least m - 1 >= 1
    np.multiply(np.maximum(spread_a, 1.0), np.maximum(spread_b, 1.0), out=den)
    out /= np.sqrt(den, out=den)
    out[(spread_a == 0) | (spread_b == 0)] = 1.0
    return out


def pcc_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` matrix of pairwise PCC values, degenerate ballots scoring 1;
    its library caller, the dense spectral path, passes distinct ballots."""
    x = e.matrix.astype(np.float64)
    lengths = e.ballot_lengths().astype(np.float64)
    return _pcc_from_counts(x @ x.T, lengths[:, None], lengths, e.num_candidates)


def pcc_weights(lengths: np.ndarray, m: int) -> np.ndarray:
    """Per-ballot PCC scale ``1/sqrt(l (m - l))`` for ballot lengths ``l``.

    The PCC of two non-constant ballots is ``w_u w_v (m |u & v| - l_u l_v)``,
    so pair sums of PCC factor through these weights.  Constant ballots get
    weight 0; they score 1 against every ballot.
    """
    spread = lengths * (m - lengths)
    varying = spread > 0
    w = np.zeros(len(lengths))
    w[varying] = 1.0 / np.sqrt(spread[varying])
    return w


def cross_hamming(a: Election, b: Election) -> np.ndarray:
    """float64 Hamming distances between the ballots of two elections, shape
    ``(n_a, n_b)``: the cost matrix that the outer-diversity matching reads.

    Every entry is an exact small integer.
    """
    if a.num_candidates != b.num_candidates:
        raise ValueError("elections have different candidate counts")
    # |u| + |v| - 2|u & v|, in place so no second (n_a, n_b) matrix is made
    out = a.matrix.astype(np.float64) @ b.matrix.astype(np.float64).T
    out *= -2
    out += a.ballot_lengths()[:, None]
    out += b.ballot_lengths()
    return out
