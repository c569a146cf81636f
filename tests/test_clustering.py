import numpy as np
import pytest

from approvaldap.agreement import cntr_agr, pcc_agr
from approvaldap.clustering import (
    Partition,
    kmedoids_hamming,
    spectral_pcc,
    weighted_cluster_agreement,
)
from approvaldap.core import Election
from approvaldap.generators import gen_k_party, gen_p_id, gen_xy_two_party

from conftest import make_random_election


def as_blocks(partition: Partition) -> set[frozenset]:
    return {frozenset(g.tolist()) for g in partition.groups() if g.size}


def test_partition_validation():
    Partition(assignments=(0, 1, 0), k=2)
    Partition(assignments=(0, 0), k=3)  # trailing empty clusters are fine
    with pytest.raises(ValueError):
        Partition(assignments=(0, 2), k=3)  # id 1 skipped
    with pytest.raises(ValueError):
        Partition(assignments=(0, 3), k=3)  # id out of range
    with pytest.raises(ValueError):
        Partition(assignments=(), k=1)
    norm = Partition.from_labels([5, 2, 5, 0], k=6)
    assert norm.assignments == (0, 1, 0, 2)


def test_kmedoids_trivial_cases(rng):
    e = make_random_election(rng, max_m=8, max_n=10)
    single = kmedoids_hamming(e, 1, seed=0)
    assert set(single.assignments) == {0}
    fine = kmedoids_hamming(e, e.num_voters + 3, seed=0)
    assert fine.assignments == tuple(range(e.num_voters))
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
    assert a == b


def test_kmedoids_descent_checks_its_objective():
    # a non-metric "distance" (nonzero diagonal) lets a medoid update raise
    # the objective; the check is a real exception, not an assert that -O strips
    from approvaldap.clustering import _kmedoids_descent

    dist = np.array([[3, 2, 2, 1], [1, 0, 0, 0], [0, 3, 2, 3], [2, 2, 3, 2]])
    with pytest.raises(RuntimeError, match="objective increased"):
        _kmedoids_descent(dist, np.array([0, 1]))


def test_spectral_trivial_cases(rng):
    e = make_random_election(rng, max_m=8, max_n=10)
    assert set(spectral_pcc(e, 1, seed=0).assignments) == {0}
    fine = spectral_pcc(e, e.num_voters + 1, seed=0)
    assert fine.assignments == tuple(range(e.num_voters))
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
        part = spectral_pcc(e, k, seed=9)
        labels = np.array(part.assignments)
        for block in range(4):
            segment = labels[10 * block : 10 * (block + 1)]
            assert len(set(segment.tolist())) == 1


def test_spectral_permutation_equivariance(rng):
    e = make_random_election(rng, max_m=10, max_n=14)
    perm = rng.permutation(e.num_voters)
    permuted = Election(e.matrix[perm])
    base = spectral_pcc(e, 3, seed=7)
    moved = spectral_pcc(permuted, 3, seed=7)
    base_blocks = {frozenset(int(perm[i]) for i in g) for g in base.groups() if g.size}
    # mapping voter i of e to position j with perm[j] = i
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    base_blocks = {frozenset(int(inv[i]) for i in g) for g in base.groups() if g.size}
    assert base_blocks == as_blocks(moved)


def test_weighted_cluster_agreement():
    e = gen_k_party(60, 60, 2)
    whole = Partition(assignments=(0,) * 60, k=1)
    assert weighted_cluster_agreement(e, whole, pcc_agr) == pcc_agr(e)
    party = Partition(assignments=(0,) * 30 + (1,) * 30, k=2)
    assert weighted_cluster_agreement(e, party, pcc_agr) == 1.0
    assert weighted_cluster_agreement(e, party, cntr_agr) == 1.0
    ident = gen_p_id(12, 9, 0.5)
    odd = Partition.from_labels([i % 3 for i in range(9)], k=3)
    assert weighted_cluster_agreement(ident, odd, pcc_agr) == 1.0
    with pytest.raises(ValueError):
        weighted_cluster_agreement(e, Partition(assignments=(0,), k=1), pcc_agr)


def test_both_clusterers_saturate_block_elections():
    for k in (2, 3, 4):
        e = gen_k_party(48, 48, k)
        med = kmedoids_hamming(e, k, seed=2)
        spec = spectral_pcc(e, k, seed=2)
        assert weighted_cluster_agreement(e, med, cntr_agr) == pytest.approx(1.0)
        assert weighted_cluster_agreement(e, spec, pcc_agr) == pytest.approx(1.0)


def test_spectral_deterministic(rng):
    e = make_random_election(rng, max_m=12, max_n=18)
    assert spectral_pcc(e, 4, seed=21) == spectral_pcc(e, 4, seed=21)
