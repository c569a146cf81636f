"""Pairwise (dis)similarity of approval ballots, over arrays of ballot pairs.

Hamming distance, Jaccard similarity and the Pearson correlation
coefficient of two binary ballots (the phi coefficient) each follow from
the pair's intersection size and the two ballot lengths.  This module
computes them over arrays of intersection sizes, which the local
agreement indices and :func:`pcc_matrix` share, and gives Hamming
distances as products of :func:`hamming_factors`, which k-medoids and
:func:`cross_hamming` share; the per-pair definitions are kept as test
oracles.  The matrix kernels take 0/1 ballot arrays, not elections;
their products are taken in float64 for BLAS, and exact, as every entry
is a sum of small integers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pcc_matrix",
    "pcc_weights",
    "hamming_factors",
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


def pcc_matrix(ballots: np.ndarray) -> np.ndarray:
    """``(n, n)`` matrix of pairwise PCC values of the rows of an ``(n, m)``
    0/1 array, degenerate ballots scoring 1; its library caller, the dense
    spectral path, passes distinct ballots."""
    x = ballots.astype(np.float64)
    lengths = x.sum(axis=1)
    return _pcc_from_counts(x @ x.T, lengths[:, None], lengths, x.shape[1])


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


def hamming_factors(ballots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)``: two read-only ``n x (m + 2)`` float64 factors of the
    Hamming distances between the rows of an ``(n, m)`` 0/1 array.

    With the ballot lengths ``l`` and the ballots ``X``, ``left = [l, 1, X]``
    and ``right = [1, l, -2X]``, so ``left[i] @ right[j] = l_i + l_j -
    2 |x_i & x_j|``, the Hamming distance of ballots i and j.  Every entry
    is a small integer, so every product and sum of them is exact in float64.
    """
    n, m = ballots.shape
    left = np.empty((n, m + 2))
    right = np.empty((n, m + 2))
    left[:, 2:] = ballots
    left[:, 0] = left[:, 2:].sum(axis=1)
    left[:, 1] = 1.0
    right[:, 0] = 1.0
    right[:, 1] = left[:, 0]
    np.multiply(ballots, -2.0, out=right[:, 2:])
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def cross_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float64 Hamming distances between the rows of two 0/1 ballot arrays,
    shape ``(n_a, n_b)``: the cost matrix that the outer-diversity matching
    reads, ``left(a) @ right(b).T`` of :func:`hamming_factors`.

    Every entry is an exact small integer.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError("ballot arrays have different candidate counts")
    return hamming_factors(a)[0] @ hamming_factors(b)[1].T
