"""Slow reference forms of library indices, kept as test oracles."""

import numpy as np

from approvaldap.core import Election
from approvaldap.metrics import hamming_matrix


def _min_side(e: Election) -> int:
    # n * min(avl, rev_avl) as an exact integer
    total = e.total_approvals()
    return min(total, e.num_voters * e.num_candidates - total)


def cntr_agr_closed_form(e: Election) -> float:
    """Per-candidate form of :func:`cntr_agr`; equal to it exactly.

    Serves as an O(nm) cross-check of the distance-based definition.
    Raises on degenerate saturation, where the normalization vanishes.
    """
    denom = _min_side(e)
    if denom == 0:
        raise ValueError("central agreement closed form undefined at saturation 0 or 1")
    scores = e.approval_counts()
    n = e.num_voters
    numer = int((n - np.abs(n - 2 * scores)).sum())
    return 1.0 - numer / (2 * denom)


def pair_agr_naive(e: Election) -> float:
    """Hamming pairwise agreement summed over all ordered ballot pairs.

    The O(n^2 m) reference form; kept as an oracle for :func:`pair_agr`.
    """
    n, m = e.num_voters, e.num_candidates
    total = e.total_approvals()
    if total in (0, n * m):
        raise ValueError("pairwise agreement sum undefined at saturation 0 or 1")
    ham_sum = int(hamming_matrix(e).sum())
    return 1.0 - (ham_sum * m) / (2 * total * (n * m - total))
