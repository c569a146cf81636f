"""Voter-partition heuristics behind the clustering-based indices.

Two clusterers are provided: k-medoids under Hamming distance (cluster
centers restricted to observed ballots) and spectral clustering on a PCC
affinity.  Optimal partitioning is out of reach, so both are seeded
heuristics; given the same election, cluster count, and seed they return
the same cluster labels on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from ._solvers import eigh
from .core import Election, seeded_streams, stream_uniforms
from .metrics import hamming_factors, pcc_matrix, pcc_weights

__all__ = [
    "kmedoids_hamming",
    "spectral_pcc",
]

_KMEDOIDS_MAX_ITER = 100
_KMEDOIDS_RESTARTS = 10
_KMEANS_MAX_ITER = 50
_KMEANS_INITS = 10
_MEDOID_STREAM = 0x4D00
_KMEANS_STREAM = 0x5300
# leading spectral dimensions the factored eigensystem must determine (the
# diversity indices cluster at up to 5 groups); eigenvalues within
# _NULL_EIGENVALUE of the largest count as zero
_SPECTRAL_FACTOR_DIMS = 5
_NULL_EIGENVALUE = 1e-9
# a k-means point is labelled from its centre scores when no other centre
# scores within _SCORE_MARGIN * max(1, R^2) of its best (R: the largest point
# norm); see _label_points
_SCORE_MARGIN = 1e-9


def _first_appearance(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered ``0, 1, ...`` in order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _trivial_labels(n: int, k: int) -> np.ndarray | None:
    """Labels of ``n`` voters for the cluster counts that need no
    clustering, or ``None``: ``k >= n`` gives each voter its own cluster
    (requests with k > n run with k = n), ``k == 1`` one cluster."""
    if k < 1:
        raise ValueError("cluster count must be positive")
    if k >= n:
        return np.arange(n)
    return np.zeros(n, dtype=np.intp) if k == 1 else None


def _weighted_picks(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each start's ``Generator.choice(n, p=row / row.sum())`` for its row of
    ``(r, n)`` nonnegative weights (one row may serve every start) and its
    uniform ``u``: ``choice`` draws ``cdf.searchsorted(u, side="right")`` for
    ``cdf = p.cumsum(); cdf /= cdf[-1]``, the count of the nondecreasing
    cdf's entries ``<= u``, and row-wise sums and cumulative sums are
    bitwise those of each row alone."""
    cdf = (weights / weights.sum(axis=1)[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=1)


def _plus_plus_seeding(picks: np.ndarray, uniforms: np.ndarray, distance_to) -> int:
    """Fill columns ``1, 2, ...`` of the ``(r, k)`` picks of ``r`` starts,
    whose column 0 is drawn, with k-means++ style draws (probability
    proportional to the squared distance to the start's nearest pick; see
    :func:`_weighted_picks`) and return the number of columns filled.

    ``distance_to(cols)`` gives the ``(r, n)`` distances from every point to
    each start's pick in ``cols``, each start keeping their running
    minimum.  They may be scaled by a nonnegative weight per point:
    rounding is monotone, so ``min(w a, w b)`` is ``w min(a, b)`` bitwise.
    ``uniforms[:, c - 1]`` holds each start's uniform for pick ``c``.

    A drawn point is at a positive distance, so each start's ``c`` picks
    are ``c`` distinct points, and the distances of one start are all 0
    exactly when those of every start are: when the points have only ``c``
    distinct rows.  Seeding then stops and returns ``c < k``.
    """
    k = picks.shape[1]
    closest = math.inf
    for c in range(1, k):
        closest = np.minimum(closest, distance_to(picks[:, c - 1]))
        weights = closest**2
        if not weights.any(axis=1).all():
            return c
        picks[:, c] = _weighted_picks(weights, uniforms[:, c - 1])
    return k


def kmedoids_hamming(e: Election, k: int, seed: int) -> np.ndarray:
    """Cluster labels of the voters by k-medoids on Hamming distance, an
    ``(n,)`` intp array numbered in order of first appearance.

    Medoids are observed ballots.  Assignment breaks ties toward the
    lowest cluster id, updates pick the lowest-index minimizer, and the
    loop stops once the total intra-cluster distance stops decreasing (or
    after 100 rounds).  The best of 10 seeded k-means++ style
    initializations, picked together (:func:`_plus_plus_seeding`), is
    returned, the first one on ties.  Every distance comes from the two
    ``n x (m + 2)`` Hamming factors of the ballots (see
    :func:`~approvaldap.metrics.hamming_factors`), memoised on the election
    so that every cluster count shares them; no ``n x n`` matrix is formed.
    The 10 restarts descend together (see :func:`_kmedoids_descent`).  With
    fewer than ``k`` distinct ballots seeding stops early, and each distinct
    ballot is one cluster.
    """
    n = e.num_voters
    if (labels := _trivial_labels(n, k)) is not None:
        return labels

    left, right = e._cache("hamming_factors", lambda: hamming_factors(e.matrix))
    # each start's stream: integers(n) for its first medoid, then one
    # uniform per later pick
    stream = seeded_streams(seed)
    medoids = np.empty((_KMEDOIDS_RESTARTS, k), dtype=np.int64)
    uniforms = np.empty((_KMEDOIDS_RESTARTS, k - 1))
    for start in range(_KMEDOIDS_RESTARTS):
        rng = stream(_MEDOID_STREAM + start)
        medoids[start, 0] = rng.integers(n)
        rng.random(out=uniforms[start])

    # each start's distances to a pick: one (r, n) product
    c = _plus_plus_seeding(medoids, uniforms, lambda cols: right[cols] @ left.T)
    if c < k:  # c distinct ballots, each a medoid of start 0: one cluster each
        dist = _medoid_distances(left, right, medoids[:1, :c])
        return _first_appearance(_nearest_centre(dist)[0])
    labels, objs = _kmedoids_descent(left, right, medoids)
    return _first_appearance(labels[int(np.argmin(objs))])


def _kmedoids_descent(left: np.ndarray, right: np.ndarray, medoids: np.ndarray):
    """Descend from ``r`` starts of ``k`` medoids, shape ``(r, k)``; update
    them in place and return ``(r, n)`` labels and an int64 array of the
    ``r`` objectives.

    The distance from point i to candidate medoid j is ``left[i] @
    right[j]``: the Hamming factors of
    :func:`~approvaldap.metrics.hamming_factors`, or any
    ``n x n`` matrix ``dist`` as ``left = dist`` with ``right = I``.  Each
    start descends as it would alone.  The live starts share each round's
    ``(a k, n)`` distance product for the labels, one product ``Z @ left``
    of the one-hot cluster matrix for every cluster's sums (for Hamming: the
    members' total length, their count and their approval counts), and one
    product of those sums with ``right.T`` for every cluster's medoid costs.
    A round's objective is the cost of the new medoids on the round's
    labels, read off those costs.  A start leaves once its objective stops
    falling (its medoids already moved that round).  The costs are sums of
    integer distances, exact in float64 whatever the products' shapes, so
    the medoids are those of separate descents on the distance matrix.
    """
    n = left.shape[0]
    r, k = medoids.shape
    voters = np.arange(n)
    live = np.arange(r)
    prev_obj = np.full(r, math.inf)
    for _ in range(_KMEDOIDS_MAX_ITER):
        a = live.size
        current = medoids[live]
        labels = _nearest_centre(_medoid_distances(left, right, current))
        # costs[i * k + c, j]: total distance from the members of cluster c
        # of live start i to ballot j; non-members are never chosen
        rows = labels + (k * np.arange(a))[:, None]
        onehot = np.zeros((a * k, n))
        onehot[rows, voters] = 1.0
        costs = (onehot @ left) @ right.T
        costs[onehot == 0.0] = math.inf
        best = np.argmin(costs, axis=1)
        cost = costs[np.arange(a * k), best]
        filled = cost < math.inf  # empty clusters keep their medoid
        flat = current.reshape(-1)
        flat[filled] = best[filled]
        medoids[live] = current
        obj = np.where(filled, cost, 0.0).reshape(a, k).sum(axis=1).astype(np.int64)
        if np.any(obj > prev_obj[live]):
            raise RuntimeError("k-medoids objective increased")
        falling = obj < prev_obj[live]
        prev_obj[live] = obj
        live = live[falling]
        if live.size == 0:
            break
    dist = _medoid_distances(left, right, medoids)
    return _nearest_centre(dist), dist.min(axis=1).sum(axis=1).astype(np.int64)


def _medoid_distances(left: np.ndarray, right: np.ndarray, medoids: np.ndarray) -> np.ndarray:
    """``(r, k, n)`` distances from every point to the medoids of ``r`` starts;
    labels are their :func:`_nearest_centre`, lowest id on ties."""
    r, k = medoids.shape
    return (right[medoids.reshape(-1)] @ left.T).reshape(r, k, -1)


def _compute_spectral_groups(e: Election):
    """Distinct-ballot spectral system: (group index per voter, weights, basis).

    Duplicate ballots are interchangeable vertices of the affinity graph,
    so they are collapsed into one vertex weighted by multiplicity.  The
    group-constant eigenvectors of the expanded normalized Laplacian are
    exactly the eigenvectors of the collapsed symmetric system below, and
    they occupy the bottom of the spectrum; working with them resolves
    the eigenvector ambiguity that repeated ballots would otherwise cause.
    The basis columns run from the largest eigenvalue down.

    The system comes from the dense PCC affinity or from its factor.  Over
    N distinct ballots the affinity ``(1 + pcc) / 2`` has rank at most
    m + 2: with the PCC weights ``w_i = 1/sqrt(l_i (m - l_i))`` (0 for a
    constant ballot; see :func:`~approvaldap.metrics.pcc_weights`),
    ``z_i = w_i (m x_i - l_i) / sqrt(m)`` and ``c`` the indicator of
    constant ballots, it equals ``B J B^T`` for ``B = sqrt(1/2) [1 + c, c, Z]``
    and ``J = diag(1, -2, 1, ..., 1)``.  When N > m + 2 the N x N matrix
    is never formed: the scaled system ``S B J B^T S`` is ``Q (R J R^T) Q^T``
    for the QR factors of ``S B``, so its eigenvectors are ``Q`` times
    those of the (m + 2)-square ``R J R^T``.  Otherwise the factor is no
    smaller than the matrix, and ``eigh`` runs on the dense system.  The
    dense system also serves a factor with fewer than
    ``_SPECTRAL_FACTOR_DIMS`` positive eigenvalues (few candidates, or
    ballots that vary on few of them): the leading columns then include
    null-space vectors, which each eigensolver picks its own way.
    """
    ballots, inverse, counts = e.distinct_ballots()
    weights = counts.astype(np.float64)
    basis = None
    if ballots.shape[0] > ballots.shape[1] + 2:
        basis = _factor_basis(ballots, weights)
    if basis is None:
        affinity = 0.5 * (1.0 + pcc_matrix(ballots))
        degree = affinity @ weights
        scale = np.sqrt(weights) / np.sqrt(degree)
        system = affinity * np.outer(scale, scale)
        system = 0.5 * (system + system.T)
        _, vecs = eigh(system)
        basis = vecs[:, ::-1].copy()
    return inverse, weights, basis


def _factor_basis(ballots: np.ndarray, weights: np.ndarray) -> np.ndarray | None:
    """Eigenvectors of the scaled system from the affinity factor, largest
    eigenvalue first, or ``None`` when fewer than ``_SPECTRAL_FACTOR_DIMS``
    eigenvalues are positive."""
    factor, signs = _affinity_factor(ballots)
    degree = factor @ (signs * (factor.T @ weights))
    scale = np.sqrt(weights) / np.sqrt(degree)
    q, r = np.linalg.qr(scale[:, None] * factor)
    small = (r * signs) @ r.T
    small = 0.5 * (small + small.T)
    vals, vecs = eigh(small)
    if (vals > _NULL_EIGENVALUE * vals[-1]).sum() < _SPECTRAL_FACTOR_DIMS:
        return None
    return q @ vecs[:, ::-1]


def _affinity_factor(ballots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(B, diag(J))`` with ``0.5 * (1 + pcc_matrix) == B diag(J) B^T``.

    ``B`` is ``N x (m + 2)``; see :func:`_compute_spectral_groups`.
    """
    num, m = ballots.shape
    lengths = ballots.sum(axis=1, dtype=np.int64)
    w = pcc_weights(lengths, m)
    constant = w == 0.0
    factor = np.empty((num, m + 2))
    factor[:, 0] = 1.0 + constant
    factor[:, 1] = constant
    # int64 before the product: m * a uint8 ballot overflows from m = 256
    centred = m * ballots.astype(np.int64) - lengths[:, None]
    factor[:, 2:] = centred * (w / math.sqrt(m))[:, None]
    factor *= math.sqrt(0.5)
    signs = np.ones(m + 2)
    signs[1] = -2.0
    return factor, signs


def spectral_pcc(e: Election, k: int, seed: int) -> np.ndarray:
    """Cluster labels of the voters by spectral clustering on the PCC
    affinity, an ``(n,)`` intp array numbered in order of first appearance.

    The affinity of two ballots is ``(1 + pcc) / 2``, rescaled to [0, 1]
    so that 0 means total dissimilarity and 1 means equal votes.  Rows of
    the k leading eigenvectors of the symmetric-normalized graph Laplacian
    are length-normalized and clustered with seeded k-means; identical
    ballots always land in the same cluster.
    """
    if (labels := _trivial_labels(e.num_voters, k)) is not None:
        return labels

    inverse, weights, basis = e._cache("spectral_groups", lambda: _compute_spectral_groups(e))
    dims = min(k, basis.shape[1])
    embed = basis[:, :dims].copy()
    norms = np.linalg.norm(embed, axis=1)
    nz = norms > 0
    embed[nz] /= norms[nz, None]
    group_labels = _kmeans(embed, k, weights, seed)
    return _first_appearance(group_labels[inverse])


def _kmeans(points: np.ndarray, k: int, weights: np.ndarray, seed: int) -> np.ndarray:
    """Labels of the best of ``_KMEANS_INITS`` seeded weighted k-means runs.

    ``weights`` are ballot multiplicities; see :func:`_update_centers`.
    Each init draws its k-means++ centres from its own seeded stream, all
    inits pick together (:func:`_plus_plus_seeding`), and the inits still
    moving share each Lloyd round: one product of centre scores labels
    every point of every live init (:func:`_label_points`; lowest id on
    ties, as ``np.argmin`` of the squared distances gives on finite
    points), and one group-by moves the centres of every live init.  An
    init leaves once its labels stop changing, or after
    ``_KMEANS_MAX_ITER`` rounds; each one's labels, centres and inertia are
    those of a run on its own.  The first init with the lowest inertia wins.
    With fewer than ``k`` distinct points seeding stops early, and each
    distinct point is one cluster, numbered in order of first appearance.
    """
    n, d = points.shape
    k = min(k, n)
    coords = np.ascontiguousarray(points.T)
    # each init's stream: one uniform per pick
    uniforms = stream_uniforms(seed, range(_KMEANS_STREAM, _KMEANS_STREAM + _KMEANS_INITS), k)

    chosen = np.empty((_KMEANS_INITS, k), dtype=np.int64)
    chosen[:, 0] = _weighted_picks(weights[None], uniforms[:, 0])
    root_weights = np.sqrt(weights)

    def distance_to(cols: np.ndarray) -> np.ndarray:
        # sqrt(weights) * np.linalg.norm(points - centre, axis=1) for every
        # init's centre, bitwise below 8 coordinates (see _centre_sq_distances)
        sq = _centre_sq_distances(coords, points[cols[:, None, None]])[:, 0]
        return root_weights * np.sqrt(sq)

    c = _plus_plus_seeding(chosen, uniforms[:, 1:], distance_to)
    if c < k:  # c distinct points, each a centre of init 0: one cluster each
        sq = _centre_sq_distances(coords, points[chosen[:1, :c, None]])
        return _first_appearance(_nearest_centre(sq)[0])
    centers = points[chosen]

    aug, margin = _score_operands(coords)
    # tiled once per call: the first a * n entries weight the stacked
    # labels of any a live inits
    tiled_weights = np.tile(weights, _KMEANS_INITS)
    tiled_weighted = np.tile(weights * coords, _KMEANS_INITS)
    labels = np.full((_KMEANS_INITS, n), -1, dtype=np.intp)  # no label yet: every init moves
    live = np.arange(_KMEANS_INITS)
    for _ in range(_KMEANS_MAX_ITER):
        current = centers[live]
        new_labels = _label_points(coords, aug, margin, current)
        moving = (new_labels != labels[live]).any(axis=1)
        live, current, new_labels = live[moving], current[moving], new_labels[moving]
        if live.size == 0:
            break
        labels[live] = new_labels
        a = live.size
        rows = (new_labels + (k * np.arange(a))[:, None]).ravel()
        _update_centers(
            current.reshape(a * k, d), rows, tiled_weights[: a * n], tiled_weighted[:, : a * n]
        )
        centers[live] = current
    sq = _centre_sq_distances(coords, centers[:, :, None])
    voters = np.arange(n)
    inertia = [float((weights * sq[i, labels[i], voters]).sum()) for i in range(_KMEANS_INITS)]
    return labels[int(np.argmin(inertia))]


def _score_operands(coords: np.ndarray) -> tuple[np.ndarray, float]:
    """``(aug, margin)`` for :func:`_label_points` from the coordinate-major
    ``(d, n)`` points: ``aug = [-2 coords; 1]``, shape ``(d + 1, n)``, and
    the score margin ``_SCORE_MARGIN * max(1, R^2)`` for the largest point
    norm ``R``."""
    d, n = coords.shape
    aug = np.empty((d + 1, n))
    np.multiply(coords, -2.0, out=aug[:d])
    aug[d] = 1.0
    radius_sq = float(np.einsum("jn,jn->n", coords, coords).max(initial=0.0))
    return aug, _SCORE_MARGIN * max(1.0, radius_sq)


def _label_points(
    coords: np.ndarray, aug: np.ndarray, margin: float, centers: np.ndarray
) -> np.ndarray:
    """``(a, n)`` index of each point's nearest centre among ``a`` sets of
    ``k`` centres, shape ``(a, k, d)``: bitwise
    ``_nearest_centre(_centre_sq_distances(coords, centers[:, :, None]))``.

    ``coords`` and ``(aug, margin)`` are as in :func:`_score_operands`.  One
    product of the centre-major rows ``[c, |c|^2]`` with ``aug`` gives every
    score ``|c|^2 - 2 x.c``, shape ``(k, a, n)``: the squared distance less
    ``|x|^2``, which is the same for every centre.  A point is settled when
    exactly one centre scores within ``margin`` of its best score, and
    takes that centre.  The other (init, point) pairs (coinciding centres,
    near ties) take :func:`_nearest_centre` of their squared distances,
    added in coordinate order as :func:`_centre_sq_distances` adds them.

    Why a settled label is exact: centres are weighted means of points, so
    every point and centre has norm at most ``R``.  Both forms sum at most
    ``d + 1`` terms of size at most ``2 R^2`` whatever the summation order
    or thread count, so each score and each summed squared distance is
    within about ``1e-15 R^2`` of its true value.  A margin of ``1e-9
    max(1, R^2)`` is far above twice that, so every other centre of a
    settled point is strictly farther in the summed form too, and that
    form's lowest-id minimum is the settled centre.  Underflow errors are
    below the margin's ``1e-9`` floor.  NaN scores settle nothing.
    """
    a, k, d = centers.shape
    n = coords.shape[1]
    rows = np.empty((k, a, d + 1))
    rows[:, :, :d] = centers.swapaxes(0, 1)
    np.einsum("kaj,kaj->ka", rows[:, :, :d], rows[:, :, :d], out=rows[:, :, d])
    score = (rows.reshape(k * a, d + 1) @ aug).reshape(k, a, n)
    threshold = score.min(axis=0)
    threshold += margin
    near = score <= threshold
    # the number of near centres and the sum of their ids, in the smallest
    # integer type that holds k: a settled point's sum is its centre
    small = np.min_scalar_type(k)
    count = near[0].astype(small)
    labels = np.zeros((a, n), dtype=small)
    term = np.empty((a, n), dtype=small)
    for c in range(1, k):
        count += near[c]
        labels += np.multiply(near[c], c, out=term, dtype=small)
    labels = labels.astype(np.intp)
    unsettled = count != 1
    if unsettled.any():
        inits, cols = np.nonzero(unsettled)
        sq = _centre_sq_distances(coords[:, cols], centers[inits].swapaxes(0, 1))
        labels[inits, cols] = _nearest_centre(sq[None])[0]
    return labels


def _centre_sq_distances(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from points to centres, added coordinate by
    coordinate in coordinate order.

    ``coords`` holds the points coordinate-major: ``points.T``, C-contiguous,
    shape ``(d, n)``; ``centers[..., j]`` broadcasts against ``coords[j]``.
    So ``(a, k, 1, d)`` centres (``a`` sets of ``k``) give ``(a, k, n)``
    distances to every point, and ``(k, n, d)`` centres (one set per point)
    give ``(k, n)``.  The squared differences are added as
    ``((points[:, None] - centers[None]) ** 2).sum(axis=2)`` adds them
    below 8 coordinates (numpy sums fewer than 8 terms in order; the
    embeddings of the clustering indices have at most 5).  So each
    distance is bitwise that form's, without its ``(n, k, d)`` temporary
    and its strided reduction over a short last axis.
    """
    sq = coords[0] - centers[..., 0]
    sq *= sq
    term = np.empty_like(sq)
    for j in range(1, coords.shape[0]):
        np.subtract(coords[j], centers[..., j], out=term)
        term *= term
        sq += term
    return sq


def _nearest_centre(sq: np.ndarray) -> np.ndarray:
    """``(a, n)`` index of each point's nearest centre in ``(a, k, n)`` distances.

    A strict-< running minimum over the centres keeps the lowest id on
    ties, so on finite distances this is ``np.argmin(sq, axis=1)`` without
    an arg-reduction over a short axis.
    """
    best = sq[:, 0].copy()
    labels = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, sq.shape[1]):
        closer = sq[:, c] < best
        labels[closer] = c
        np.minimum(best, sq[:, c], out=best)
    return labels


def _update_centers(
    centers: np.ndarray, labels: np.ndarray, weights: np.ndarray, weighted: np.ndarray
) -> None:
    """Move each non-empty cluster's centre to its members' weighted mean.

    ``centers`` is ``(K, d)``, ``labels`` gives each of ``N`` rows a cluster
    in ``[0, K)``, and ``weighted`` is the coordinate-major ``(d, N)``
    product ``weights * points.T``.  Stacked runs pass their clusters as
    one ``K`` with labels offset by ``k`` per run.  One ``bincount`` per
    coordinate adds the weighted points in row order, as ``np.average``
    over each cluster's rows does; the masses are sums of integer weights,
    exact in any order.  So the centres are bitwise those of a per-cluster
    ``np.average``.  An empty cluster keeps its previous centre.
    """
    k = centers.shape[0]
    mass = np.bincount(labels, weights=weights, minlength=k)
    live = mass > 0
    for j, coord in enumerate(weighted):
        sums = np.bincount(labels, weights=coord, minlength=k)
        centers[live, j] = sums[live] / mass[live]
