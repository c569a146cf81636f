"""Agreement indices: six maps from an election to [0, 1].

Global indices (approval, central, Hamming-pairwise and PCC-pairwise
agreement) measure whether all voters hold similar views; the local ones
(Jaccard and PCC+ pairwise agreement) also reward large internally
agreeing groups.  Every index gives 1 exactly on identity elections,
where all ballots coincide.

Degenerate elections -- saturation 0 or 1, which forces all ballots to be
equal -- are identity elections, so the indices whose normalization would
vanish there return 1 by convention.

Integer accumulators are used throughout so that the two formulations of
Hamming-pairwise agreement (the quadratic sum and its per-candidate
rearrangement) and of central agreement produce bit-identical floats; the
test suite keeps the second formulation of each as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Election
from .metrics import _jaccard_similarity, _pcc_from_counts, pcc_weights

__all__ = [
    "CentralVote",
    "av_agr",
    "central_vote",
    "cntr_agr",
    "pair_agr",
    "jacc_agr",
    "pcc_agr",
    "pccplus_agr",
    "AGREEMENT_INDICES",
]

_PCC_RESIDUE = 1e-9


@dataclass(frozen=True)
class CentralVote:
    """A ballot agreeing with at least half the voters on every candidate.

    ``chd`` is the sum of Hamming distances from the central ballot to all
    ballots of the election; it is the same for every central vote.
    """

    ballot: np.ndarray
    chd: int


def av_agr(e: Election) -> float:
    """Approval agreement: mean over candidates of ``|1 - 2|A(c)|/n|``."""
    scores = e.approval_counts()
    n, m = e.num_voters, e.num_candidates
    total = int(np.abs(n - 2 * scores).sum())
    return total / (n * m)


def central_vote(e: Election) -> CentralVote:
    """The canonical central vote (ties at ``n/2`` resolve to disapprove)."""
    scores = e.approval_counts()
    ballot = (2 * scores > e.num_voters).astype(np.uint8)
    ballot.setflags(write=False)
    return CentralVote(ballot=ballot, chd=_chd(scores, e.num_voters))


def _chd(scores: np.ndarray, n: int) -> int:
    # summing per candidate: each contributes min(|A(c)|, n - |A(c)|)
    return int(np.minimum(scores, n - scores).sum())


def _clusters(e: Election, labels):
    """``(share, rows, size)`` per cluster in ascending id order; with no
    labels, the one cluster ``(1.0, slice(None), n)``, whose rows are views."""
    n = e.num_voters
    if labels is None:
        yield 1.0, slice(None), n
        return
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels do not cover the election's voters")
    # with return_inverse, np.unique sorts; the bare call takes numpy's hash
    # path, whose masked-array check imports numpy.ma
    ids, inverse = np.unique(labels, return_inverse=True)
    for c in range(ids.size):
        rows = np.flatnonzero(inverse == c)
        yield rows.size / n, rows, rows.size


def cntr_agr(e: Election, labels=None) -> float:
    """Central agreement: 1 minus chd normalized by ``n * min(avl, rev_avl)``.

    With ``labels`` (one cluster id per voter), the cluster-size-weighted
    mean of each cluster's own value, from its rows' approval counts.
    """
    x, m = e.matrix, e.num_candidates
    value = 0.0
    for share, rows, size in _clusters(e, labels):
        scores = x[rows].sum(axis=0, dtype=np.int64)
        # n * min(avl, rev_avl) as an exact integer
        total = int(scores.sum())
        denom = min(total, size * m - total)
        value += share * (1.0 if denom == 0 else 1.0 - _chd(scores, size) / denom)
    return value


def pair_agr(e: Election) -> float:
    """Hamming pairwise agreement via the per-candidate rearrangement.

    Evaluates ``1 - sum_c |A(c)|(n-|A(c)|) / (n^2 m satr (1-satr))`` in
    O(nm); equals the quadratic definition exactly.
    """
    n, m = e.num_voters, e.num_candidates
    total = e.total_approvals()
    if total in (0, n * m):
        return 1.0
    scores = e.approval_counts()
    pair_sum = int((scores * (n - scores)).sum())
    # n^2 m satr(1-satr) == total * (nm - total) / m
    return 1.0 - (pair_sum * m) / (total * (n * m - total))


def jacc_agr(e: Election) -> float:
    """Mean Jaccard similarity over all ordered ballot pairs (self-pairs included)."""
    return _local_pair_means(e)[0]


def pcc_agr(e: Election, labels=None) -> float:
    """Mean PCC over all ordered ballot pairs, in O(nm) with no n x n matrix.

    With the weights ``w_i = 1/sqrt(l_i (m - l_i))`` of the ballot lengths
    ``l_i`` (0 for a constant ballot; see
    :func:`~approvaldap.metrics.pcc_weights`), the PCC of two non-constant
    ballots is ``w_i w_j (m |u_i & u_j| - l_i l_j)``, so their pair sum is
    ``m ||X^T w||^2 - (sum_i l_i w_i)^2``; the ``n^2 - n_nc^2`` pairs that
    involve a constant ballot score 1.  The mean is within float residue
    of ``pcc_matrix(e.matrix).mean()``; it is exactly 1 on identity
    elections and is clamped to [0, 1].

    With ``labels``, the cluster-size-weighted mean of each cluster's own
    value, as in :func:`cntr_agr`, from its rows of ``X``, ``w`` and ``l``.
    """
    x, m = e.matrix, e.num_candidates
    lengths = e.ballot_lengths()
    w = pcc_weights(lengths, m)
    value = 0.0
    for share, rows, n in _clusters(e, labels):
        xc, lc, wc = x[rows], lengths[rows], w[rows]
        projected = wc @ xc
        pair_sum = m * float(projected @ projected) - float(lc @ wc) ** 2
        n_nc = int(np.count_nonzero(wc))
        mean = 1.0 if (xc == xc[0]).all() else (pair_sum + (n * n - n_nc * n_nc)) / (n * n)
        value += share * (0.0 if -_PCC_RESIDUE < mean < 0.0 else min(1.0, mean))
    return value


def pccplus_agr(e: Election) -> float:
    """Mean of ``max(0, pcc)`` over all ordered ballot pairs."""
    return _local_pair_means(e)[1]


# rows of the product per BLAS call: every float64 temporary is O(block * n);
# at 4000 distinct ballots two 128-row blocks take 8.2 MB, two of 256 16.4 MB
_PRODUCT_BLOCK_ROWS = 128


def _local_pair_means(e: Election) -> tuple[float, float]:
    """``(jacc_agr, pccplus_agr)`` from one memoised pass with no n x n matrix:
    over the distinct ballots ``b`` with counts ``c``, each is ``sum_ab c_a c_b
    sim(b_a, b_b) / n^2``, the similarities sharing each row block of ``b @ b.T``.
    ``sim`` is symmetric, so a block covers only its own and the later columns
    and weighs the later ones twice.  Memory grows with the block times the N
    distinct ballots, time with N^2; the sums match the n x n mean within
    float residue, not bit for bit."""

    def compute():
        ballots, _, c = e.distinct_ballots()
        ballots = ballots.astype(np.float64)
        lengths = ballots.sum(axis=1)
        jacc = plus = 0.0
        for lo in range(0, len(c), _PRODUCT_BLOCK_ROWS):
            rows = slice(lo, lo + _PRODUCT_BLOCK_ROWS)
            block = ballots[rows] @ ballots[lo:].T  # exact integers
            la, lb = lengths[rows, None], lengths[lo:]
            weights = 2.0 * c[lo:]
            weights[: la.size] = c[rows]  # the diagonal block holds both orders
            jacc += float(c[rows] @ _jaccard_similarity(block, la, lb) @ weights)
            # PCC overwrites the intersection sizes: two blocks live at a time
            block = _pcc_from_counts(block, la, lb, e.num_candidates)
            plus += float(c[rows] @ np.maximum(block, 0.0, out=block) @ weights)
        return jacc / e.num_voters**2, plus / e.num_voters**2

    return e._cache("local_pair_means", compute)


AGREEMENT_INDICES = {
    "av_agr": av_agr,
    "cntr_agr": cntr_agr,
    "pair_agr": pair_agr,
    "pcc_agr": pcc_agr,
    "jacc_agr": jacc_agr,
    "pccplus_agr": pccplus_agr,
}
