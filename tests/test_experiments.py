import math
import os
import pickle
import time

import numpy as np
import pytest

from approvaldap.agreement import av_agr, cntr_agr, jacc_agr, pair_agr, pcc_agr, pccplus_agr
from approvaldap.cli import ManifestError
from approvaldap.core import Election, stats
from approvaldap.divpol import cntr_div, cntr_pol, out_div, pair_pol, pcc_div, pcc_pol
from approvaldap import experiments
from approvaldap.experiments import (
    _ROUND_ITEMS,
    INDEX_NAMES,
    _cpus_unbalanced,
    _map_items,
    MapEntry,
    complementarity,
    compass_specs,
    correlations,
    evaluate_index,
    feature_vector,
    index_table,
    map_of_elections,
    mds_embed,
    resampling_experiment,
    synthetic_map_entries,
)
from approvaldap.generators import CultureSpec, SpecError, gen_k_party, gen_p_id, sample

from conftest import make_random_election


def kendall_tau_b_brute(x, y) -> float:
    """O(n^2) concordant/discordant pair count with tie correction."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (concordant - discordant) / denom


def test_evaluate_index_rejects_unknown():
    e = gen_p_id(6, 6, 0.5)
    with pytest.raises(ValueError):
        evaluate_index("zorp", e)
    assert evaluate_index("satr", e) == 0.5


def test_evaluate_index_matches_direct_calls():
    direct = {
        "satr": lambda e, seed: stats(e).satr,
        "av_agr": lambda e, seed: av_agr(e),
        "cntr_agr": lambda e, seed: cntr_agr(e),
        "pair_agr": lambda e, seed: pair_agr(e),
        "pcc_agr": lambda e, seed: pcc_agr(e),
        "jacc_agr": lambda e, seed: jacc_agr(e),
        "pccplus_agr": lambda e, seed: pccplus_agr(e),
        "cntr_div": cntr_div,
        "pcc_div": pcc_div,
        "out_div": out_div,
        "cntr_pol": cntr_pol,
        "pcc_pol": pcc_pol,
        "pair_pol": lambda e, seed: pair_pol(e),
    }
    assert tuple(direct) == INDEX_NAMES
    spec = CultureSpec("resampling", 30, 30, seed=8, params={"p": 0.4, "phi": 0.5})
    for seed in (0, 13):
        e, fresh = sample(spec), sample(spec)
        for name, fn in direct.items():
            assert evaluate_index(name, e, seed) == fn(fresh, seed), (name, seed)


def test_resampling_experiment_shape_and_identity_column():
    mat = resampling_experiment("pair_agr", m=10, n=10, samples=1, seed=2)
    assert mat.values.shape == (9, 11)
    assert (mat.values[:, 0] == 1.0).all()
    assert ((0.0 <= mat.values) & (mat.values <= 1.0)).all()
    again = resampling_experiment("pair_agr", m=10, n=10, samples=1, seed=2)
    assert np.array_equal(mat.values, again.values)
    csv = mat.to_csv()
    assert csv.splitlines()[0].startswith("p\\phi,phi=0,")


def test_index_table_reproducible():
    specs = [
        CultureSpec("p_id", 10, 10, params={"p": 0.5}, label="id"),
        CultureSpec("p_ic", 10, 10, params={"p": 0.5}, label="ic"),
    ]
    a = index_table(specs, samples=3, seed=9)
    b = index_table(specs, samples=3, seed=9)
    assert np.array_equal(a.means, b.means) and np.array_equal(a.stds, b.stds)
    assert a.labels == ("id", "ic") and a.indices == INDEX_NAMES
    assert INDEX_NAMES == (  # the CSV column order
        "satr", "av_agr", "cntr_agr", "pair_agr", "pcc_agr", "jacc_agr", "pccplus_agr",
        "cntr_div", "pcc_div", "out_div", "cntr_pol", "pcc_pol", "pair_pol",
    )
    row = a.row("id")
    assert row["pair_agr"] == (1.0, 0.0)
    assert "pair_agr_mean" in a.to_csv().splitlines()[0]


def test_feature_vector_examples():
    ident = gen_p_id(30, 30, 0.4)
    fv = feature_vector(ident, seed=1)
    assert fv.dtype == np.float64 and fv.tolist() == [1.0, 0.0, 0.0]


def test_feature_vector_subsamples_big_elections(rng):
    big = Election((rng.random((1200, 10)) < 0.4).astype(np.uint8))
    fv = feature_vector(big, seed=0)
    assert fv.shape == (3,) and ((0.0 <= fv) & (fv <= 1.0)).all()


def test_mds_equilateral_triangle_embeds_exactly():
    d = np.ones((3, 3)) - np.eye(3)
    emb = mds_embed(d)
    assert emb.distortion == pytest.approx(1.0, abs=1e-6)
    assert emb.stress == pytest.approx(0.0, abs=1e-9)


def test_mds_tetrahedron_cannot_be_planar():
    d = np.ones((4, 4)) - np.eye(4)
    emb = mds_embed(d)
    assert 1.0 + 1e-4 < emb.distortion < 1.5


def test_mds_stress_is_nonincreasing(rng):
    pts = rng.random((12, 3))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    emb = mds_embed(d)
    path = np.array(emb.stress_path)
    assert (np.diff(path) <= 1e-12).all()


def test_mds_validates_input():
    with pytest.raises(ValueError):
        mds_embed(np.array([[0.0, 1.0], [2.0, 0.0]]))
    # asymmetric by 9e-4, far past the absolute tolerance of 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        mds_embed(np.array([[0.0, 100.0], [100.0009, 0.0]]))
    with pytest.raises(ValueError):
        mds_embed(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        mds_embed(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        mds_embed(np.zeros((2, 3)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="distances must be finite"):
            mds_embed(np.array([[0.0, bad], [bad, 0.0]]))


def test_complementarity_identical_and_constant_sum(rng):
    x = np.array([0.0] * 32 + [1.0] * 32)
    assert complementarity(x, x, x) == 0.0
    for _ in range(20):
        a = rng.random(40)
        assert abs(complementarity(a, a, a)) <= 1e-12
    u = rng.integers(0, 100, 50) / 128
    v = rng.integers(0, 100, 50) / 128
    w = 2.0 - u - v
    assert complementarity(u, v, w) == 1.0
    with pytest.raises(ValueError):
        complementarity(np.ones(5), np.ones(5), np.ones(5))
    with pytest.raises(ValueError):
        complementarity(np.ones(3), np.ones(4), np.ones(3))


def test_correlations_examples(rng):
    x = rng.random(60)
    table = np.column_stack([x, -x, np.full(60, 0.25)])
    rho, tau = correlations(table)
    assert rho[0, 0] == 1.0 and tau[0, 0] == 1.0
    assert rho[0, 1] == pytest.approx(-1.0)
    assert tau[0, 1] == pytest.approx(-1.0)
    assert np.isnan(rho[0, 2]) and np.isnan(tau[2, 2])
    with pytest.raises(ValueError):
        correlations(np.ones((1, 3)))


def test_correlations_kendall_matches_brute_force(rng):
    for _ in range(10):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        if np.std(x) == 0 or np.std(y) == 0:
            continue
        _, tau = correlations(np.column_stack([x, y]))
        assert tau[0, 1] == pytest.approx(kendall_tau_b_brute(x, y), abs=1e-12)


def test_compass_and_synthetic_corpus_composition():
    assert len(compass_specs()) == 14
    entries = synthetic_map_entries(seed=123)
    groups = {}
    for en in entries:
        groups[en.group] = groups.get(en.group, 0) + 1
    assert groups == {
        "compass": 14,
        "IC": 10,
        "Lin-IC": 5,
        "Resampling": 50,
        "N(2-Party)": 25,
        "(x,y)-2-Party": 25,
        "Party-list": 25,
        "ID-Mixture": 20,
        "IAM-Mixture": 20,
        "2D-Euclidean": 50,
    }
    assert len(entries) == 244
    # declarative round trip
    back = [MapEntry.from_dict(en.to_dict()) for en in entries]
    assert back == entries
    assert synthetic_map_entries(seed=123) == entries


def test_map_of_elections_small():
    items = [
        ("id", "a", gen_p_id(12, 12, 0.5)),
        ("2p", "b", gen_k_party(12, 12, 2)),
        ("ic", "c", sample(CultureSpec("p_ic", 12, 12, seed=3, params={"p": 0.5}))),
    ]
    result = map_of_elections(items, seed=4)
    assert result.features.shape == (3, 3)
    assert np.allclose(result.distances, result.distances.T)
    assert result.embedding.points.shape == (3, 2)
    assert "label,group,agr,div,pol" in result.feature_csv().splitlines()[0]
    with pytest.raises(ValueError):
        map_of_elections(items[:1], seed=4)


# -- items scored in worker processes ------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_items_keeps_item_order_over_rounds():
    affinity = os.sched_getaffinity(0)
    count = 2 * _ROUND_ITEMS + 5
    assert list(_map_items(lambda i: i * i, count, 2)) == [i * i for i in range(count)]
    assert os.sched_getaffinity(0) == affinity
    assert_no_child_left()


def test_map_items_shares_items_over_every_worker():
    # more workers than cores; 0.9 s of items leaves each child time to start
    def pid_of(i):
        time.sleep(0.03)
        return os.getpid()

    pids = list(_map_items(pid_of, 30, 3))
    assert os.getpid() in pids and len(set(pids)) == 3
    assert_no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to pin apart")
@pytest.mark.parametrize("unbalanced", [True, False])
def test_map_items_pins_only_where_the_cpus_are_unbalanced(monkeypatch, unbalanced):
    affinity = os.sched_getaffinity(0)
    monkeypatch.setattr(experiments, "_cpus_unbalanced", lambda: unbalanced)

    def cpus_of(i):
        time.sleep(0.03)
        return os.getpid(), frozenset(os.sched_getaffinity(0))

    placements = dict(_map_items(cpus_of, 20, 2))
    assert len(placements) == 2
    if unbalanced:
        assert all(len(cpus) == 1 for cpus in placements.values())
        assert len(set(placements.values())) == 2
    else:
        assert set(placements.values()) == {frozenset(affinity)}
    assert os.sched_getaffinity(0) == affinity
    assert_no_child_left()


def test_cpus_unbalanced_reads_every_cpuset_down_to_its_own(tmp_path):
    cgroups = tmp_path / "cgroup"
    cgroups.write_text("4:memory:/box\n3:cpuset:/jobs\n0::/\n")
    root = tmp_path / "cpuset"
    (root / "jobs").mkdir(parents=True)
    (root / "cpuset.sched_load_balance").write_text("0\n")
    (root / "jobs" / "cpuset.sched_load_balance").write_text("0\n")
    assert _cpus_unbalanced(str(cgroups), str(root))
    (root / "cpuset.sched_load_balance").write_text("1\n")  # the root balances its children
    assert not _cpus_unbalanced(str(cgroups), str(root))
    (root / "jobs" / "cpuset.sched_load_balance").unlink()
    assert not _cpus_unbalanced(str(cgroups), str(root))
    cgroups.write_text("0::/\n")  # cgroup v2 alone
    assert not _cpus_unbalanced(str(cgroups), str(root))
    assert not _cpus_unbalanced(str(tmp_path / "none"), str(root))


def test_map_items_raises_the_lowest_failing_item():
    def fn(i):
        if i in (1, 2):
            raise ValueError(f"item {i}")
        time.sleep(0.05)
        return i

    for workers in (1, 2, 3):
        got = []
        with pytest.raises(ValueError, match="^item 1$"):
            for result in _map_items(fn, 6, workers):
                got.append(result)
        assert got == [0]  # the results before it, as the plain loop yields them
        assert_no_child_left()


def test_map_items_stops_every_worker_after_a_failure(tmp_path):
    # the other process finishes the item it holds and takes no more
    scored = tmp_path / "scored"

    def fn(i):
        if i == 2:
            raise ValueError("item 2")
        time.sleep(0.02)
        with open(scored, "a") as f:
            f.write(f"{i}\n")

    with pytest.raises(ValueError, match="^item 2$"):
        list(_map_items(fn, 60, 2))
    assert len(scored.read_text().split()) < 10
    assert_no_child_left()


def test_map_items_brings_a_child_exception_back_intact():
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            raise ManifestError(f"/items/{i}", "refused in a child")
        time.sleep(0.05)
        return i

    with pytest.raises(ManifestError) as info:
        list(_map_items(fn, 6, 2))
    assert info.value.pointer != "" and info.value.message == "refused in a child"
    assert str(info.value) == f"{info.value.pointer}: refused in a child"
    spec_error = pickle.loads(pickle.dumps(SpecError("/params/p", "must be a number")))
    assert (spec_error.field, str(spec_error)) == ("/params/p", "/params/p: must be a number")
    assert_no_child_left()


def test_map_items_kills_the_children_when_its_own_share_is_interrupted():
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    affinity = os.sched_getaffinity(0)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        list(_map_items(fn, 4, 2))
    assert time.perf_counter() - start < 30
    assert os.sched_getaffinity(0) == affinity
    assert_no_child_left()


def test_out_div_runs_in_as_many_workers_as_fit_its_memory_limit(monkeypatch):
    from approvaldap import divpol

    # 1000 voters: 5000 draws against 1000 ballots, 8 * 5000 * 6000 bytes
    assert divpol._out_div_fit([(60, 60), (1000, 200)]) == (1 << 30) // 240_000_000 == 4
    assert divpol._out_div_fit([(2500, 100)]) == 1  # over the limit: the LP, or refused
    seen = []
    map_items = experiments._map_items

    def spy(fn, count, workers=1):
        seen.append(workers)
        return map_items(fn, count, workers)

    monkeypatch.setattr(experiments, "_map_items", spy)
    # the table's noisy culture draws its 12x20 base: 8 * 60 * (60 + 12) bytes
    base = CultureSpec("p_ic", 20, 12, params={"p": 0.5})
    noisy = CultureSpec("noisy", 5, 5, params={"phi": 0.5, "base": base})
    monkeypatch.setattr(divpol, "_MATCHING_MAX_BYTES", 2 * 8 * 60 * 72)
    index_table([noisy], samples=2, seed=0, indices=["satr", "out_div"], workers=3)
    index_table([noisy], samples=2, seed=0, indices=["satr"], workers=3)
    resampling_experiment("out_div", m=12, n=12, samples=1, seed=0, workers=3)
    assert seen == [2, 3, 2]
    assert_no_child_left()
