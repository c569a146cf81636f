"""Pairwise (dis)similarity measures between approval ballots.

Three measures are exposed: Hamming distance, Jaccard distance, and the
Pearson correlation coefficient of two binary vectors (the phi
coefficient).  Each comes in a per-pair form; Jaccard similarity and PCC
also come over arrays of intersection sizes and ballot lengths, which
the local agreement indices and :func:`pcc_matrix` share.  The sizes
come from products ``A @ B.T`` of 0/1 ballot matrices, taken in float64
for BLAS and exact, as each entry is a sum of at most ``m`` ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Election

__all__ = [
    "PairCounts",
    "hamming",
    "jaccard",
    "pcc",
    "pcc_from_hamming",
    "pair_counts",
    "pcc_matrix",
    "pcc_weights",
    "cross_hamming",
]

# rows of the product per BLAS call: every float64 temporary is O(block * n);
# at 4000 distinct ballots two 128-row blocks take 8.2 MB, two of 256 16.4 MB
_PRODUCT_BLOCK_ROWS = 128


@dataclass(frozen=True)
class PairCounts:
    """2x2 contingency counts of two ballots: both / only first / only second / neither."""

    n11: int
    n10: int
    n01: int
    n00: int

    @property
    def length(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


def _as_ballots(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(u, dtype=np.int64).ravel()
    b = np.asarray(v, dtype=np.int64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"ballot lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def pair_counts(u, v) -> PairCounts:
    a, b = _as_ballots(u, v)
    n11 = int((a & b).sum())
    n10 = int(a.sum()) - n11
    n01 = int(b.sum()) - n11
    return PairCounts(n11=n11, n10=n10, n01=n01, n00=a.size - n11 - n10 - n01)


def hamming(u, v) -> int:
    """Number of positions on which two equal-length ballots differ."""
    a, b = _as_ballots(u, v)
    return int(np.abs(a - b).sum())


def jaccard(u, v) -> float:
    """Jaccard distance of the approval sets, in [0, 1].

    Two empty ballots are identical, so the 0/0 case is defined as 0.
    """
    c = pair_counts(u, v)
    union = c.n11 + c.n10 + c.n01
    if union == 0:
        return 0.0
    return 1.0 - c.n11 / union


def pcc(u, v) -> float:
    """Pearson correlation of two binary ballots, in [-1, 1].

    Computed from the contingency counts.  If either ballot is constant
    (all zeros or all ones) the usual formula degenerates to 0/0 and the
    value is fixed to 1.
    """
    c = pair_counts(u, v)
    la, lb, m = c.n11 + c.n10, c.n11 + c.n01, c.length
    if la in (0, m) or lb in (0, m):
        return 1.0
    # single sqrt of the integer product is exact for identical ballots
    return (c.n00 * c.n11 - c.n01 * c.n10) / math.sqrt(la * (m - la) * lb * (m - lb))


def pcc_from_hamming(p: float, m: int, ham: int) -> float:
    """PCC of two ballots of identical length ``p*m`` from their Hamming distance.

    Valid whenever both ballots approve exactly ``p*m`` candidates with
    ``0 < p < 1``; then ``pcc = 1 - ham / (2 m p (1-p))``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    return 1.0 - ham / (2.0 * m * p * (1.0 - p))


# -- array forms over intersection sizes ------------------------------


def _product_blocks(a: np.ndarray, b: np.ndarray):
    """``(rows, a[rows] @ b.T)`` over row blocks of two 0/1 matrices, each block
    a fresh float64 array of exact integers that the caller may overwrite."""
    af = a.astype(np.float64)
    bt = af.T if b is a else b.astype(np.float64).T
    for lo in range(0, a.shape[0], _PRODUCT_BLOCK_ROWS):
        rows = slice(lo, lo + _PRODUCT_BLOCK_ROWS)
        yield rows, af[rows] @ bt


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
    """Hamming distances between the ballots of two elections, shape ``(n_a, n_b)``.

    Used where the two sides differ (e.g. matching an election against
    sampled reference ballots).
    """
    if a.num_candidates != b.num_candidates:
        raise ValueError("elections have different candidate counts")
    # |u| + |v| - 2|u & v|, in place so no second (n_a, n_b) matrix is made
    out = np.empty((a.num_voters, b.num_voters), dtype=np.int64)
    for rows, block in _product_blocks(a.matrix, b.matrix):
        out[rows] = block
    out *= -2
    out += a.ballot_lengths()[:, None]
    out += b.ballot_lengths()[None, :]
    return out
