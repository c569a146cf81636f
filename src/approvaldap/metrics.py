"""Pairwise (dis)similarity measures between approval ballots.

Three measures are exposed: Hamming distance, Jaccard distance, and the
Pearson correlation coefficient of two binary vectors (the phi
coefficient).  Each comes in a per-pair form and, for the quadratic
election indices, as an all-pairs kernel over an election.  The kernels
get every pair count from one product ``A @ B.T`` of the 0/1 ballot
matrices, taken in float64 so that it runs on BLAS; it is exact because
each entry is a sum of at most ``m`` ones.
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
    "intersection_matrix",
    "hamming_matrix",
    "jaccard_similarity_matrix",
    "pcc_matrix",
    "pcc_weights",
    "cross_hamming",
]

# rows of the product per BLAS call: the float64 temporary stays
# O(block * n) instead of a second n x n matrix
_PRODUCT_BLOCK_ROWS = 256


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
    return _pcc_from_counts(c.n11, c.n10, c.n01, c.n00)


def _pcc_from_counts(n11: int, n10: int, n01: int, n00: int) -> float:
    la, lb = n11 + n10, n11 + n01
    m = n11 + n10 + n01 + n00
    if la in (0, m) or lb in (0, m):
        return 1.0
    num = n00 * n11 - n01 * n10
    # single sqrt of the integer product is exact for identical ballots
    den = math.sqrt(la * (m - la) * lb * (m - lb))
    return num / den


def pcc_from_hamming(p: float, m: int, ham: int) -> float:
    """PCC of two ballots of identical length ``p*m`` from their Hamming distance.

    Valid whenever both ballots approve exactly ``p*m`` candidates with
    ``0 < p < 1``; then ``pcc = 1 - ham / (2 m p (1-p))``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    return 1.0 - ham / (2.0 * m * p * (1.0 - p))


# -- all-pairs kernels ------------------------------------------------


def intersection_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` int64 matrix of pairwise approval-set intersection sizes.

    The workhorse of every quadratic index: all pair statistics follow
    from this matrix plus the per-ballot lengths.  It is the product
    ``X @ X.T`` of the 0/1 ballot matrix, read-only and memoized on the
    election.
    """

    def compute():
        out = _products(e.matrix, e.matrix)
        out.setflags(write=False)
        return out

    return e._cache("intersection_matrix", compute)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` of two 0/1 matrices as int64, computed in float64 row blocks."""
    af = a.astype(np.float64)
    bt = b.astype(np.float64).T
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
    for lo in range(0, a.shape[0], _PRODUCT_BLOCK_ROWS):
        out[lo : lo + _PRODUCT_BLOCK_ROWS] = af[lo : lo + _PRODUCT_BLOCK_ROWS] @ bt
    return out


def hamming_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` matrix of pairwise Hamming distances."""
    n11 = intersection_matrix(e)
    lengths = e.ballot_lengths()
    out = lengths[:, None] + lengths[None, :] - 2 * n11
    out.setflags(write=False)
    return out


def jaccard_similarity_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` matrix of ``1 - jaccard(u, v)`` (empty-vs-empty pairs score 1)."""
    n11 = intersection_matrix(e)
    lengths = e.ballot_lengths()
    union = lengths[:, None] + lengths[None, :] - n11
    sim = np.ones((e.num_voters, e.num_voters), dtype=np.float64)
    return np.divide(n11, union, out=sim, where=union > 0)


def pcc_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` matrix of pairwise PCC values, degenerate ballots scoring 1."""
    m = e.num_candidates
    n11 = intersection_matrix(e)
    lengths = e.ballot_lengths()
    num = m * n11.astype(np.float64) - np.outer(lengths, lengths)
    spread = lengths * (m - lengths)
    constant = spread == 0
    safe = np.where(constant, 1, spread).astype(np.float64)
    out = num / np.sqrt(np.outer(safe, safe))
    out[constant, :] = 1.0
    out[:, constant] = 1.0
    return out


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
    out = _products(a.matrix, b.matrix)
    out *= -2
    out += a.ballot_lengths()[:, None]
    out += b.ballot_lengths()[None, :]
    return out
