import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from approvaldap import clustering, core
from approvaldap.agreement import cntr_agr, pcc_agr
from approvaldap.clustering import kmedoids_hamming, spectral_pcc
from approvaldap.core import Election
from approvaldap.generators import (
    CultureSpec,
    gen_k_party,
    gen_noisy,
    gen_p_id,
    gen_xy_two_party,
    sample,
)
from approvaldap.metrics import hamming_factors, pcc_matrix

from conftest import make_random_election
from oracles import hamming_matrix, seeded_rng


def as_blocks(labels: np.ndarray) -> set[frozenset]:
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}


def test_partition_validation():
    norm = clustering._first_appearance(np.array([5, 2, 5, 0]))
    assert norm.tolist() == [0, 1, 0, 2]


def from_labels_oracle(labels):
    """First-appearance relabelling, one label at a time."""
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 40), min_size=1, max_size=60))
@example([7])
@example([9, 9, 9])
@example([40, -3, 12, 40, 5, -3])
def test_from_labels_matches_first_appearance_loop(labels):
    want = from_labels_oracle(labels)
    for form in (labels, np.asarray(labels, dtype=np.intp)):
        got = clustering._first_appearance(form)
        assert got.dtype == np.intp
        assert tuple(got.tolist()) == want


@pytest.mark.parametrize("clusterer", [kmedoids_hamming, spectral_pcc])
def test_clusterers_return_first_appearance_label_arrays(rng, clusterer):
    elections = [make_random_election(rng, max_m=10, max_n=9) for _ in range(8)]
    elections += [gen_k_party(12, 12, 3), Election([[1, 0], [0, 1], [1, 0]])]
    for e in elections:
        n = e.num_voters
        for k in range(1, 7):
            labels = clusterer(e, k, seed=1)
            assert labels.shape == (n,) and labels.dtype == np.intp
            assert tuple(labels.tolist()) == from_labels_oracle(labels)
            assert labels.max() < min(k, n)
            if k >= n:
                assert labels.tolist() == list(range(n))


def test_kmedoids_trivial_cases(rng):
    e = make_random_election(rng, max_m=8, max_n=10)
    single = kmedoids_hamming(e, 1, seed=0)
    assert single.tolist() == [0] * e.num_voters
    fine = kmedoids_hamming(e, e.num_voters + 3, seed=0)
    assert fine.tolist() == list(range(e.num_voters))
    with pytest.raises(ValueError):
        kmedoids_hamming(e, 0, seed=0)


def test_kmedoids_recovers_party_blocks():
    two = gen_k_party(60, 60, 2)
    part = kmedoids_hamming(two, 2, seed=5)
    assert as_blocks(part) == {frozenset(range(30)), frozenset(range(30, 60))}
    four = gen_k_party(60, 60, 4)
    part4 = kmedoids_hamming(four, 4, seed=5)
    assert as_blocks(part4) == {frozenset(range(15 * i, 15 * (i + 1))) for i in range(4)}


def test_kmedoids_deterministic(rng):
    e = make_random_election(rng, max_m=15, max_n=25)
    a = kmedoids_hamming(e, 3, seed=11)
    b = kmedoids_hamming(e, 3, seed=11)
    assert np.array_equal(a, b)


def test_kmedoids_descent_checks_its_objective():
    # a non-metric "distance" (nonzero diagonal) lets a medoid update raise
    # the objective; the check is a real exception, not an assert that -O strips
    from approvaldap.clustering import _kmedoids_descent

    dist = np.array([[3, 2, 2, 1], [1, 0, 0, 0], [0, 3, 2, 3], [2, 2, 3, 2]], dtype=np.float64)
    with pytest.raises(RuntimeError, match="objective increased"):
        _kmedoids_descent(dist, np.eye(4), np.array([[0, 1]]))


def test_spectral_trivial_cases(rng):
    e = make_random_election(rng, max_m=8, max_n=10)
    assert spectral_pcc(e, 1, seed=0).tolist() == [0] * e.num_voters
    fine = spectral_pcc(e, e.num_voters + 1, seed=0)
    assert fine.tolist() == list(range(e.num_voters))
    with pytest.raises(ValueError):
        spectral_pcc(e, 0, seed=0)


def test_spectral_recovers_party_blocks():
    two = gen_k_party(60, 60, 2)
    part = spectral_pcc(two, 2, seed=3)
    assert as_blocks(part) == {frozenset(range(30)), frozenset(range(30, 60))}
    uneven = gen_xy_two_party(60, 60, 1 / 3, 1 / 3)
    part2 = spectral_pcc(uneven, 2, seed=3)
    assert as_blocks(part2) == {frozenset(range(20)), frozenset(range(20, 60))}


def test_spectral_identical_ballots_stay_together(rng):
    e = gen_k_party(40, 40, 4)
    for k in (2, 3, 4, 5):
        labels = spectral_pcc(e, k, seed=9)
        for block in range(4):
            segment = labels[10 * block : 10 * (block + 1)]
            assert len(set(segment.tolist())) == 1


def test_spectral_permutation_equivariance(rng):
    e = make_random_election(rng, max_m=10, max_n=14)
    perm = rng.permutation(e.num_voters)
    permuted = Election(e.matrix[perm])
    base = spectral_pcc(e, 3, seed=7)
    moved = spectral_pcc(permuted, 3, seed=7)
    # mapping voter i of e to position j with perm[j] = i
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    base_blocks = {frozenset(int(inv[i]) for i in g) for g in as_blocks(base)}
    assert base_blocks == as_blocks(moved)


def test_clustered_agreement():
    e = gen_k_party(60, 60, 2)
    whole = np.zeros(60, dtype=np.intp)
    assert pcc_agr(e, whole) == pcc_agr(e)
    party = np.repeat(np.arange(2), 30)
    assert pcc_agr(e, party) == 1.0
    assert cntr_agr(e, party) == 1.0
    ident = gen_p_id(12, 9, 0.5)
    odd = np.arange(9) % 3
    assert pcc_agr(ident, odd) == 1.0
    for agr in (cntr_agr, pcc_agr):
        with pytest.raises(ValueError):
            agr(e, np.zeros(1, dtype=np.intp))
        with pytest.raises(ValueError):
            agr(e, np.zeros((60, 1), dtype=np.intp))


def test_both_clusterers_saturate_block_elections():
    for k in (2, 3, 4):
        e = gen_k_party(48, 48, k)
        med = kmedoids_hamming(e, k, seed=2)
        spec = spectral_pcc(e, k, seed=2)
        assert cntr_agr(e, med) == pytest.approx(1.0)
        assert pcc_agr(e, spec) == pytest.approx(1.0)


def test_spectral_deterministic(rng):
    e = make_random_election(rng, max_m=12, max_n=18)
    assert np.array_equal(spectral_pcc(e, 4, seed=21), spectral_pcc(e, 4, seed=21))


# -- k-means++ seeding: the batched draws against Generator.choice ---------


def test_choice_is_one_draw_against_the_normalised_cdf():
    # the batched seeding replays Generator.choice(n, p=p) as a searchsorted
    # of one random() in p's normalised cumulative sum; a numpy release that
    # draws choice another way fails here before any partition moves
    source = np.random.default_rng(7)
    for trial in range(3000):
        n = int(source.integers(1, 60))
        weights = source.random(n) ** 2 * 10.0 ** source.integers(-6, 7)
        weights[source.random(n) < 0.2] = 0.0
        if weights.sum() <= 0.0:
            weights[0] = 1.0
        p = weights / weights.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        a, b = seeded_rng(trial, 5), seeded_rng(trial, 5)
        for _ in range(3):
            assert a.choice(n, p=p) == cdf.searchsorted(b.random(), side="right")


def record_seeds(monkeypatch):
    """Record the ``(r, k)`` k-means++ picks of every start and the number of
    columns filled, once per seeding; the last record is a call's."""
    seeds = []
    seeding = clustering._plus_plus_seeding

    def recorded(picks, *args):
        filled = seeding(picks, *args)
        seeds.append((picks.copy(), filled))
        return filled

    monkeypatch.setattr(clustering, "_plus_plus_seeding", recorded)
    return seeds


def test_kmedoids_fallback_draws_match_oracle(monkeypatch):
    # c < k distinct ballots: after c picks every distance is 0, so the
    # oracle draws its further medoids uniformly while seeding stops; each
    # distinct ballot is one cluster and every start's c picks are the oracle's
    pool = np.array(
        [[1, 0, 1, 1, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 1], [0, 0, 0, 1, 1]], dtype=np.uint8
    )
    for k in range(2, 6):
        for c in range(1, k):
            rows = np.arange(9) % c  # one cluster per distinct row
            e = Election(pool[rows])
            for seed in (11, 12):
                seeds = [
                    kmedoids_seeds_oracle(
                        hamming_matrix(e), k, seeded_rng(seed, clustering._MEDOID_STREAM + start)
                    )[:c]
                    for start in range(clustering._KMEDOIDS_RESTARTS)
                ]
                got = record_seeds(monkeypatch)
                labels = kmedoids_hamming(e, k, seed)
                monkeypatch.undo()
                assert np.array_equal(labels, rows), (k, c, seed)
                assert np.array_equal(labels, kmedoids_oracle(e, k, seed))
                assert got[-1][1] == c
                assert np.array_equal(got[-1][0][:, :c], seeds)


def test_kmeans_fallback_draws_match_oracle(monkeypatch):
    # c < k distinct points: after c centres every weighted distance is 0,
    # so the oracle draws its further centres uniformly while seeding stops;
    # each distinct point is one cluster, the oracle's partition
    pool = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [-1.0, 0.0]])
    weights = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 4.0, 2.0, 1.0])
    for k in range(2, 6):
        for c in range(1, k):
            rows = np.arange(9) % c  # one cluster per distinct row
            points = pool[rows]
            for seed in (0, 1, 2):
                seeds = [
                    kmeans_seeds_oracle(
                        points, k, weights, seeded_rng(seed, clustering._KMEANS_STREAM + init)
                    )[:c]
                    for init in range(clustering._KMEANS_INITS)
                ]
                got = record_seeds(monkeypatch)
                labels = clustering._kmeans(points, k, weights, seed)
                monkeypatch.undo()
                assert np.array_equal(labels, rows), (k, c, seed)
                want = kmeans_oracle(points, k, weights, seed)
                assert np.array_equal(labels, clustering._first_appearance(want))
                assert got[-1][1] == c
                assert np.array_equal(got[-1][0][:, :c], seeds)


@st.composite
def fully_seeded_cases(draw):
    """Repeated rows of a small pool, as ballots and as weighted points, and a
    cluster count from 2 up to the number of distinct rows (below n for the
    ballots), so every start draws all its picks; the weights are ballot
    multiplicities or positive non-integers."""
    n = draw(st.integers(3, 40))
    pool_size = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(pool_size, size=n)
    ballots = (rng.random((pool_size, draw(st.integers(3, 9)))) < 0.5).astype(np.uint8)[rows]
    points = rng.normal(size=(pool_size, draw(st.integers(1, 5))))[rows]
    if draw(st.booleans()):
        weights = rng.integers(1, 6, size=n).astype(np.float64)
    else:
        weights = rng.uniform(0.1, 5.0, size=n)
    distinct = min(np.unique(ballots, axis=0).shape[0], n - 1)
    assume(distinct >= 2)
    k_ballots = draw(st.integers(2, distinct))
    k_points = draw(st.integers(2, np.unique(points, axis=0).shape[0]))
    return Election(ballots), k_ballots, points, k_points, weights, seed


@settings(max_examples=200, deadline=None)
@given(fully_seeded_cases())
def test_full_seeding_matches_oracles_pick_for_pick(case):
    e, k_ballots, points, k_points, weights, seed = case
    dist = hamming_matrix(e)
    with pytest.MonkeyPatch.context() as patch:
        got = record_seeds(patch)
        kmedoids_hamming(e, k_ballots, seed)
        clustering._kmeans(points, k_points, weights, seed)
    (medoids, filled), (centres, filled_centres) = got
    assert filled == k_ballots and filled_centres == k_points
    for start in range(clustering._KMEDOIDS_RESTARTS):
        rng = seeded_rng(seed, clustering._MEDOID_STREAM + start)
        assert medoids[start].tolist() == kmedoids_seeds_oracle(dist, k_ballots, rng)
    for init in range(clustering._KMEANS_INITS):
        rng = seeded_rng(seed, clustering._KMEANS_STREAM + init)
        assert centres[init].tolist() == kmeans_seeds_oracle(points, k_points, weights, rng)


def test_clusterers_build_one_bit_generator_per_call(monkeypatch):
    built = []
    real = core.Philox

    def counting(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    rng = np.random.default_rng(3)
    cases = [
        # every start draws all its picks
        (
            sample(CultureSpec("resampling", 30, 200, seed=5, params={"p": 0.3, "phi": 0.5})),
            rng.normal(size=(200, 4)),
        ),
        # two distinct ballots and points: seeding stops after pick 2
        (gen_k_party(30, 200, 2), np.repeat(rng.normal(size=(2, 4)), 100, axis=0)),
    ]
    weights = rng.integers(1, 5, 200).astype(np.float64)
    monkeypatch.setattr(core, "Philox", counting)
    for e, points in cases:
        for k in range(2, 6):
            built.clear()
            kmedoids_hamming(e, k, seed=k)
            assert len(built) <= 1
            built.clear()
            clustering._kmeans(points, k, weights, seed=k)
            assert len(built) <= 1


# -- oracles: the per-cluster loops the vectorised updates replaced ---------


def _plus_plus_pick(dist_to_chosen: np.ndarray, chosen, rng) -> int:
    """k-means++ style draw: probability proportional to squared distance;
    uniform over the points not yet chosen when every distance is 0."""
    weights = dist_to_chosen.astype(np.float64) ** 2
    s = weights.sum()
    if s <= 0.0:
        remaining = np.setdiff1d(np.arange(weights.size), chosen)
        if remaining.size == 0:
            return int(rng.integers(weights.size))
        return int(remaining[rng.integers(remaining.size)])
    return int(rng.choice(weights.size, p=weights / s))


def update_centers_oracle(centers, labels, points, weights):
    for c in range(centers.shape[0]):
        members = labels == c
        if members.any():
            centers[c] = np.average(points[members], axis=0, weights=weights[members])


def kmeans_seeds_oracle(points, k, weights, rng):
    """The indices of one init's k-means++ centres, drawn one at a time."""
    n = points.shape[0]
    chosen = [int(rng.choice(n, p=weights / weights.sum()))]
    closest = np.linalg.norm(points - points[chosen[0]], axis=1)
    for _ in range(1, min(k, n)):
        nxt = _plus_plus_pick(np.sqrt(weights) * closest, chosen, rng)
        chosen.append(nxt)
        np.minimum(closest, np.linalg.norm(points - points[nxt], axis=1), out=closest)
    return chosen


def kmeans_single_oracle(points, k, weights, rng):
    n = points.shape[0]
    centers = points[kmeans_seeds_oracle(points, k, weights, rng)]
    labels = None
    for _ in range(clustering._KMEANS_MAX_ITER):
        sq = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(sq, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        update_centers_oracle(centers, labels, points, weights)
    sq = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float((weights * sq[np.arange(n), labels]).sum())
    return labels, inertia


def kmeans_oracle(points, k, weights, seed):
    """Best of the seeded single runs, the first one on ties."""
    best_inertia, best_labels = math.inf, None
    for init in range(clustering._KMEANS_INITS):
        rng = seeded_rng(seed, clustering._KMEANS_STREAM + init)
        labels, inertia = kmeans_single_oracle(points, k, weights, rng)
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def kmedoids_descent_oracle(dist, medoids):
    n = dist.shape[0]
    k = medoids.size
    prev_obj = math.inf
    for _ in range(clustering._KMEDOIDS_MAX_ITER):
        labels = np.argmin(dist[:, medoids], axis=1)
        for c in range(k):
            members = np.flatnonzero(labels == c)
            if members.size:
                costs = dist[np.ix_(members, members)].sum(axis=0)
                medoids[c] = members[int(np.argmin(costs))]
        obj = int(dist[np.arange(n), medoids[labels]].sum())
        if obj >= prev_obj:
            break
        prev_obj = obj
    labels = np.argmin(dist[:, medoids], axis=1)
    return labels, int(dist[np.arange(n), medoids[labels]].sum())


def kmedoids_seeds_oracle(dist, k, rng):
    """One start's k-means++ style medoids, drawn one at a time."""
    medoids = [int(rng.integers(dist.shape[0]))]
    closest = dist[medoids[0]].copy()
    while len(medoids) < k:
        nxt = _plus_plus_pick(closest, medoids, rng)
        medoids.append(nxt)
        np.minimum(closest, dist[nxt], out=closest)
    return medoids


def kmedoids_oracle(e, k, seed):
    dist = hamming_matrix(e)  # int64
    best_obj, best_labels = math.inf, None
    for start in range(clustering._KMEDOIDS_RESTARTS):
        rng = seeded_rng(seed, clustering._MEDOID_STREAM + start)
        medoids = kmedoids_seeds_oracle(dist, k, rng)
        labels, obj = kmedoids_descent_oracle(dist, np.asarray(medoids))
        if obj < best_obj:
            best_obj, best_labels = obj, labels
    return clustering._first_appearance(best_labels)


@st.composite
def weighted_points(draw):
    """Points drawn from a small pool, so duplicates empty out clusters and
    k often reaches the number of distinct points; integer weights, like
    the ballot multiplicities the spectral clusterer passes."""
    d = draw(st.integers(2, 5))
    k = draw(st.integers(2, 5))
    pool_size = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(pool_size, d))
    points = pool[rng.integers(pool_size, size=n)]
    weights = rng.integers(1, 6, size=n).astype(np.float64)
    return points, k, weights, seed


@st.composite
def repeated_elections(draw):
    """Elections over a pool of ballots, often with repeats, and a cluster
    count below n."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(3, 40))
    distinct = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = (rng.random((distinct, m)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
    e = Election(pool[rng.integers(distinct, size=n)])
    k = draw(st.integers(2, min(5, n - 1)))
    return e, k, seed


@settings(max_examples=300, deadline=None)
@given(weighted_points())
def test_center_update_matches_per_cluster_average(case):
    points, k, weights, seed = case
    rng = np.random.default_rng(seed)
    labels = rng.integers(k, size=points.shape[0])
    start = rng.normal(size=(k, points.shape[1]))
    fast, slow = start.copy(), start.copy()
    clustering._update_centers(fast, labels, weights, weights * points.T)
    update_centers_oracle(slow, labels, points, weights)
    assert fast.tobytes() == slow.tobytes()


def assert_kmeans_matches_oracle(labels, want, points, k):
    """Raw labels equal when the points have at least ``k`` distinct rows
    (or are all distinct).  Below that seeding stops early and numbers the
    clusters in order of first appearance, while the oracle's raw ids come
    from its uniform draws past the last distinct row, so the partitions are
    compared."""
    if np.unique(points, axis=0).shape[0] < min(k, points.shape[0]):
        want = clustering._first_appearance(want)
    assert np.array_equal(labels, want)


@settings(max_examples=300, deadline=None)
@given(weighted_points())
def test_kmeans_single_matches_oracle(case):
    points, k, weights, seed = case
    labels = clustering._kmeans(points, k, weights, seed)
    assert_kmeans_matches_oracle(labels, kmeans_oracle(points, k, weights, seed), points, k)


@st.composite
def duplicated_points(draw):
    """Weighted points in 1 to 5 dimensions with rows repeated, so seeding
    can pick two equal rows and two centres then coincide, and k from 2 to 6,
    often past the number of points."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    copies = rng.integers(n, size=rng.integers(0, n + 1))
    points[rng.integers(n, size=copies.size)] = points[copies]
    weights = rng.integers(1, 6, size=n).astype(np.float64)
    return points, k, weights, seed


@settings(max_examples=300, deadline=None)
@given(duplicated_points())
@example((np.zeros((4, 2)), 3, np.ones(4), 0))
def test_kmeans_matches_best_of_oracle_runs(case):
    # coinciding centres tie on every point: the lowest id takes it
    points, k, weights, seed = case
    labels = clustering._kmeans(points, k, weights, seed)
    assert_kmeans_matches_oracle(labels, kmeans_oracle(points, k, weights, seed), points, k)


@settings(max_examples=300, deadline=None)
@given(
    duplicated_points(),
    st.sampled_from([1, 2, 3]),
    st.integers(1, clustering._KMEANS_INITS),
)
def test_kmeans_matches_oracle_at_round_caps(case, cap, inits):
    # at a low cap some inits stop at it while others have already left the
    # live set with settled labels; fewer inits let each of them win in turn,
    # so a slip in any init's bookkeeping shows; the oracle runs under the
    # same cap and init count
    points, k, weights, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_KMEANS_MAX_ITER", cap)
        patch.setattr(clustering, "_KMEANS_INITS", inits)
        labels = clustering._kmeans(points, k, weights, seed)
        want = kmeans_oracle(points, k, weights, seed)
    assert_kmeans_matches_oracle(labels, want, points, k)


def drawn_centres(points, a, k, rng):
    """``(a, k, d)`` centres inside the points' hull, as k-means keeps them:
    copies of points (so duplicated points give coinciding centres) or
    random weighted means of points, some then copied onto another centre
    of the same set."""
    n = points.shape[0]
    copies = points[rng.integers(n, size=(a, k))]
    mix = rng.dirichlet(np.ones(n), size=(a, k)) @ points
    centres = np.where(rng.random((a, k, 1)) < 0.5, copies, mix)
    for i in np.flatnonzero(rng.random(a) < 0.5):
        src, dst = rng.integers(k, size=2)
        centres[i, dst] = centres[i, src]
    return centres


def labels_oracle(points, centres):
    return clustering._nearest_centre(
        clustering._centre_sq_distances(np.ascontiguousarray(points.T), centres[:, :, None])
    )


def scored_labels(points, centres):
    coords = np.ascontiguousarray(points.T)
    aug, margin = clustering._score_operands(coords)
    return clustering._label_points(coords, aug, margin, centres)


@settings(max_examples=300, deadline=None)
@given(
    duplicated_points(),
    st.sampled_from([1e-3, 1.0, 1e6]),
    st.integers(1, clustering._KMEANS_INITS),
)
def test_scored_labels_match_summed_distances(case, scale, a):
    points, k, _, seed = case
    points = points * scale
    centres = drawn_centres(points, a, k, np.random.default_rng(seed))
    got = scored_labels(points, centres)
    assert got.dtype == np.intp
    assert np.array_equal(got, labels_oracle(points, centres))


def test_coinciding_centres_take_the_exact_path(monkeypatch):
    # centres 1 and 2 coincide, so no point nearest to them is settled by
    # its scores; the summed distances give it the lower id
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.9, 1.1], [-1.0, 0.5], [1.0, 1.0]])
    centres = np.array([[[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [[-1.0, 0.5], [0.0, 0.0], [0.9, 1.1]]])
    calls = []
    nearest = clustering._nearest_centre

    def counted(sq):
        calls.append(sq.shape[2])
        return nearest(sq)

    monkeypatch.setattr(clustering, "_nearest_centre", counted)
    got = scored_labels(points, centres)
    assert calls == [3]  # points 1, 2 and 4 of the first set
    monkeypatch.undo()
    assert got.tolist() == [[0, 1, 1, 0, 1], [1, 2, 2, 0, 2]]
    assert np.array_equal(got, labels_oracle(points, centres))


@settings(max_examples=300, deadline=None)
@given(repeated_elections())
def test_kmedoids_descent_matches_oracle(case):
    e, k, seed = case
    dist = hamming_matrix(e)
    medoids = np.random.default_rng(seed).choice(e.num_voters, size=k, replace=False)
    fast_medoids, slow_medoids = medoids.copy(), medoids.copy()
    left, right = hamming_factors(e.matrix)
    labels, objs = clustering._kmedoids_descent(left, right, fast_medoids[None])
    want_labels, want_obj = kmedoids_descent_oracle(dist, slow_medoids)
    assert np.array_equal(fast_medoids, slow_medoids)
    assert np.array_equal(labels[0], want_labels)
    assert objs[0] == want_obj


@settings(max_examples=150, deadline=None)
@given(repeated_elections())
def test_kmedoids_matches_oracle(case):
    e, k, seed = case
    assert np.array_equal(kmedoids_hamming(e, k, seed), kmedoids_oracle(e, k, seed))


@st.composite
def kmedoids_elections(draw):
    """Random elections with m on and off byte boundaries, all-equal ones
    (every distance is 0, so seeding stops after the first pick), and
    cluster counts from 1 to past n."""
    m = draw(st.sampled_from([1, 3, 7, 8, 9, 15, 16, 17, 24, 31]))
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        matrix = (rng.random((n, m)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
    else:
        matrix = np.tile((rng.random(m) < 0.5).astype(np.uint8), (n, 1))
    k = draw(st.integers(1, n + 2))
    return Election(matrix), k, seed


@settings(max_examples=200, deadline=None)
@given(kmedoids_elections())
def test_kmedoids_matches_oracle_on_edge_elections(case):
    # k >= n gives every voter its own cluster; the oracle covers k < n
    e, k, seed = case
    n = e.num_voters
    want = np.arange(n) if k >= n else kmedoids_oracle(e, k, seed)
    assert np.array_equal(kmedoids_hamming(e, k, seed), want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 7, 8, 9, 255, 256, 300]), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_hamming_factors_reproduce_hamming_matrix(m, n, seed):
    rng = np.random.default_rng(seed)
    e = Election((rng.random((n, m)) < rng.uniform(0.05, 0.95)).astype(np.uint8))
    left, right = hamming_factors(e.matrix)
    assert left.shape == right.shape == (n, m + 2)
    assert not left.flags.writeable and not right.flags.writeable
    assert np.array_equal(left @ right.T, hamming_matrix(e))


def test_kmedoids_path_builds_no_square_matrix(monkeypatch):
    # cntr_div and cntr_pol cluster by k-medoids and score the clusters by
    # central agreement: neither needs a pairwise kernel
    from approvaldap import agreement, metrics
    from approvaldap.divpol import cntr_div, cntr_pol

    spec = CultureSpec("resampling", 40, 300, seed=1, params={"p": 0.2, "phi": 0.5})
    want = [cntr_div(sample(spec), seed=3), cntr_pol(sample(spec), seed=3)]

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n pairwise matrix was built")

    for module, name in [
        (agreement, "_jaccard_similarity"),
        (agreement, "_pcc_from_counts"),
        (metrics, "cross_hamming"),
        (metrics, "_jaccard_similarity"),
        (metrics, "_pcc_from_counts"),
        (metrics, "pcc_matrix"),
        (clustering, "pcc_matrix"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    e = sample(spec)
    assert e.num_voters == 300
    assert [cntr_div(e, seed=3), cntr_pol(e, seed=3)] == want


def test_kmedoids_peak_memory_is_far_below_a_square_matrix():
    import tracemalloc

    n = 4000
    rng = np.random.default_rng(3)
    e = Election((rng.random((n, 50)) < 0.3).astype(np.uint8))
    tracemalloc.start()
    try:
        kmedoids_hamming(e, 5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 n x n matrix is 8 n^2 bytes
    assert peak < n * n


@st.composite
def descent_starts(draw):
    """A distance matrix with the factors ``(left, right)`` of the descent,
    ``r`` starts of ``k`` distinct medoids each, and a round cap.  The
    matrix is either the Hamming matrix of an election with repeated
    ballots (empty clusters, k up to and past the distinct ballots), as
    the election's Hamming factors, or an asymmetric positive one with a
    zero diagonal, as ``left = dist`` and ``right = I``, on which a gather
    of rows instead of columns gives other labels.  Low caps stop starts
    mid-descent; the starts also stop in different rounds of their own."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        e, _, _ = draw(repeated_elections())
        dist = hamming_matrix(e)
        left, right = hamming_factors(e.matrix)
    else:
        n = draw(st.integers(3, 30))
        dist = rng.integers(1, 10, size=(n, n)).astype(np.float64)
        np.fill_diagonal(dist, 0.0)
        left, right = dist, np.eye(n)
    n = dist.shape[0]
    k = draw(st.integers(2, n - 1))
    r = draw(st.integers(1, clustering._KMEDOIDS_RESTARTS))
    starts = np.stack([rng.choice(n, size=k, replace=False) for _ in range(r)])
    cap = draw(st.sampled_from([1, 2, 3, clustering._KMEDOIDS_MAX_ITER]))
    return (dist, left, right), starts, cap


# a start that stops at an equal objective: had it descended one more
# round, its medoids would still move
PLATEAU = np.array(
    [
        [0, 1, 1, 2, 3, 1],
        [1, 0, 3, 3, 1, 2],
        [3, 2, 0, 3, 1, 1],
        [3, 3, 2, 0, 1, 2],
        [3, 2, 1, 3, 0, 3],
        [1, 2, 1, 3, 2, 0],
    ],
    dtype=np.float64,
)


@settings(max_examples=300, deadline=None)
@given(descent_starts())
@example(
    (
        (PLATEAU, PLATEAU, np.eye(6)),
        np.array([[3, 1], [0, 5], [4, 2]]),
        clustering._KMEDOIDS_MAX_ITER,
    )
)
def test_stacked_kmedoids_descent_matches_one_start_at_a_time(case):
    (dist, left, right), starts, cap = case
    saved = clustering._KMEDOIDS_MAX_ITER
    clustering._KMEDOIDS_MAX_ITER = cap
    try:
        stacked = starts.copy()
        labels, objs = clustering._kmedoids_descent(left, right, stacked)
        rows = [clustering._kmedoids_descent(left, right, row[None]) for row in starts.copy()]
        oracle_medoids = starts.copy()
        oracle = [kmedoids_descent_oracle(dist, row) for row in oracle_medoids]
    finally:
        clustering._KMEDOIDS_MAX_ITER = saved
    assert labels.shape == (starts.shape[0], dist.shape[0])
    assert objs.dtype == np.int64
    for i, (row_labels, row_objs) in enumerate(rows):
        assert row_objs.shape == (1,) and row_objs.dtype == np.int64
        assert np.array_equal(labels[i], row_labels[0])
        assert objs[i] == row_objs[0]
        assert np.array_equal(labels[i], oracle[i][0])
        assert objs[i] == oracle[i][1]
    assert np.array_equal(stacked, oracle_medoids)


def test_kmedoids_takes_the_first_of_tied_restarts(monkeypatch):
    # four pairs of identical ballots, each pair at distance 2 from the
    # others: every 2-way split of the pairs has objective 8, so restarts tie
    # with different partitions, and the first of them must win, as in a
    # strict-< scan over the restarts
    e = Election(np.repeat(np.eye(4, dtype=np.uint8), 2, axis=0))
    seen = []
    descend = clustering._kmedoids_descent

    def spy(left, right, medoids):
        labels, objs = descend(left, right, medoids)
        seen.append((labels.copy(), objs.copy()))
        return labels, objs

    monkeypatch.setattr(clustering, "_kmedoids_descent", spy)
    part = kmedoids_hamming(e, 2, seed=0)
    (labels, objs), = seen
    winners = np.flatnonzero(objs == objs.min())
    assert len({clustering._first_appearance(labels[i]).tobytes() for i in winners}) > 1
    assert np.array_equal(part, clustering._first_appearance(labels[winners[0]]))
    assert np.array_equal(part, kmedoids_oracle(e, 2, seed=0))


def test_clusterers_match_oracles_on_party_and_random_elections(rng, monkeypatch):
    elections = [gen_k_party(48, 48, 3), gen_xy_two_party(60, 60, 1 / 3, 1 / 3)]
    elections += [make_random_election(rng, max_m=20, max_n=60) for _ in range(10)]
    cases = [(e, k) for e in elections for k in (2, 3, 5) if k < e.num_voters]
    spectral = [spectral_pcc(e, k, seed=4) for e, k in cases]
    medoids = [kmedoids_hamming(e, k, seed=4) for e, k in cases]
    for e in elections:
        e.clear_cache()
    monkeypatch.setattr(clustering, "_kmeans", kmeans_oracle)
    for (e, k), spec, med in zip(cases, spectral, medoids):
        assert np.array_equal(spec, spectral_pcc(e, k, seed=4))
        assert np.array_equal(med, kmedoids_oracle(e, k, seed=4))


# -- the spectral eigensystem: rank-(m + 2) factor against the dense eigh ---


def dense_spectral_system(e):
    """(eigenvalues, basis, group index per voter, weights) of the collapsed
    system from the dense N x N affinity, largest eigenvalue first: the
    eigensystem at every N before the factor."""
    ballots, inverse, counts = np.unique(
        e.matrix, axis=0, return_inverse=True, return_counts=True
    )
    affinity = 0.5 * (1.0 + pcc_matrix(ballots))
    weights = counts.astype(np.float64)
    scale = np.sqrt(weights) / np.sqrt(affinity @ weights)
    system = affinity * np.outer(scale, scale)
    vals, vecs = scipy.linalg.eigh(0.5 * (system + system.T))
    return vals[::-1], vecs[:, ::-1].copy(), inverse.ravel(), weights


def dense_spectral_groups(e):
    _, basis, inverse, weights = dense_spectral_system(e)
    return inverse, weights, basis


def distinct_ballot_election(m, num, seed):
    """``num`` distinct ballots over ``m`` candidates (constant ones allowed),
    each cast once plus random repeats, in shuffled voter order."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(2**m, size=num, replace=False)
    ballots = ((codes[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    voters = np.concatenate([np.arange(num), rng.integers(num, size=rng.integers(0, 2 * num))])
    return Election(ballots[rng.permutation(voters)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_affinity_factor_reproduces_pcc_affinity(m, num, seed):
    num = min(num, 2**m)
    e = distinct_ballot_election(m, num, seed)
    ballots = np.unique(e.matrix, axis=0)
    factor, signs = clustering._affinity_factor(ballots)
    want = 0.5 * (1.0 + pcc_matrix(ballots))
    assert np.abs((factor * signs) @ factor.T - want).max() <= 1e-12


def test_affinity_factor_past_uint8_candidate_counts():
    # m * ballot would wrap, or raise, in the ballots' uint8 dtype
    rng = np.random.default_rng(3)
    ballots = np.unique((rng.random((12, 300)) < 0.4).astype(np.uint8), axis=0)
    factor, signs = clustering._affinity_factor(ballots)
    want = 0.5 * (1.0 + pcc_matrix(ballots))
    assert np.abs((factor * signs) @ factor.T - want).max() <= 1e-12
    e = Election((rng.random((400, 260)) < 0.3).astype(np.uint8))
    assert spectral_pcc(e, 3, seed=0).shape == (400,)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_factor_basis_matches_dense_eigh(m, extra, seed):
    num = min(m + 2 + extra, 2**m)
    assume(num > m + 2)
    e = distinct_ballot_election(m, num, seed)
    vals, dense_basis, _, _ = dense_spectral_system(e)
    # non-degenerate: the leading eigenvectors are determined up to sign
    assume(np.diff(vals[:6]).max() < -1e-3)
    _, _, basis = clustering._compute_spectral_groups(e)
    assert basis.shape == (num, m + 2)
    for j in range(5):
        a, b = basis[:, j], dense_basis[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-12


def test_spectral_partitions_match_dense_path(rng, monkeypatch):
    elections = [gen_noisy(gen_k_party(10, 60, k), 0.1, seed=k) for k in (2, 3, 4)]
    elections += [sample(CultureSpec("resampling", 12, 80, seed=3, params={"p": 0.3, "phi": 0.5}))]
    elections += [make_random_election(rng, max_m=12, max_n=60) for _ in range(12)]
    assert sum(len(np.unique(e.matrix, axis=0)) > e.num_candidates + 2 for e in elections) >= 10
    cases = [(e, k) for e in elections for k in range(2, 6) if k < e.num_voters]
    factored = [spectral_pcc(e, k, seed=9) for e, k in cases]
    for e in elections:
        e.clear_cache()
    monkeypatch.setattr(clustering, "_compute_spectral_groups", dense_spectral_groups)
    for (e, k), labels in zip(cases, factored):
        assert np.array_equal(labels, spectral_pcc(e, k, seed=9))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(1, clustering._KMEANS_INITS),
    st.integers(0, 2**32 - 1),
)
def test_sq_distances_match_summed_form(d, n, k, a, seed):
    # bitwise below 8 coordinates, where numpy sums the squares in order
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
    centers = rng.normal(size=(a, k, d))
    got = clustering._centre_sq_distances(np.ascontiguousarray(points.T), centers[:, :, None])
    assert got.shape == (a, k, n)
    for i in range(a):
        want = ((points[:, None, :] - centers[i][None, :, :]) ** 2).sum(axis=2)
        assert got[i].tobytes() == np.ascontiguousarray(want.T).tobytes()
