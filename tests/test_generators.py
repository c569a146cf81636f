import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from approvaldap import core, generators
from approvaldap.agreement import AGREEMENT_INDICES
from approvaldap.core import stats, stream_uniforms
from approvaldap.experiments import SYNTHETIC_MAP_SEED, compass_specs, synthetic_map_entries
from approvaldap.generators import (
    FAMILIES,
    CultureSpec,
    SpecError,
    gen_cyclic,
    gen_diagonal,
    gen_euclidean,
    gen_iam,
    gen_iam_mixture,
    gen_id_ic,
    gen_id_mixture,
    gen_k_party,
    gen_lin_ic,
    gen_noisy,
    gen_p_ic,
    gen_p_id,
    gen_resampling,
    gen_triangle,
    gen_uneven_party_list,
    gen_xy_two_party,
    sample,
)


def test_p_id_examples():
    e = gen_p_id(60, 60, 1 / 3)
    assert (e.ballot_lengths() == 20).all()
    assert not gen_p_id(5, 3, 0.0).matrix.any()
    for fn in AGREEMENT_INDICES.values():
        assert fn(e) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gen_p_id(5, 3, 1.5)


def test_k_party_structure():
    e = gen_k_party(60, 60, 2)
    assert (e.approval_counts() == 30).all()
    lopsided = gen_k_party(7, 5, 3)
    # earlier groups receive the remainder
    assert stats(lopsided).avl == pytest.approx((2 * 3 + 2 * 2 + 1 * 2) / 5)
    assert lopsided.matrix[0, :3].sum() == 3 and lopsided.matrix[0, 3:].sum() == 0
    with pytest.raises(ValueError):
        gen_k_party(10, 4, 5)


def test_xy_two_party_floor_convention():
    e = gen_xy_two_party(60, 60, 1 / 3, 1 / 3)
    assert e.matrix[:20, :20].all() and not e.matrix[:20, 20:].any()
    assert e.matrix[20:, 20:].all() and not e.matrix[20:, :20].any()
    empty_first = gen_xy_two_party(10, 10, 0.0, 0.5)
    assert not empty_first.matrix[:5].any()


def test_triangle_cyclic_diagonal():
    tri = gen_triangle(60)
    assert stats(tri).satr == pytest.approx(61 / 120)
    assert tri.matrix[0].sum() == 1 and tri.matrix[59].sum() == 60
    cyc = gen_cyclic(60)
    assert (cyc.ballot_lengths() == 30).all()
    assert np.array_equal(cyc.matrix[1], np.roll(cyc.matrix[0], 1))
    first = np.zeros(60, dtype=np.uint8)
    first[0] = 1
    first[-29:] = 1
    assert np.array_equal(cyc.matrix[0], first)
    assert (gen_diagonal(7).approval_counts() == 1).all()


def test_random_families_are_seed_deterministic():
    for spec in (
        CultureSpec("p_ic", 12, 9, seed=5, params={"p": 0.3}),
        CultureSpec("resampling", 12, 9, seed=5, params={"p": 0.4, "phi": 0.5}),
        CultureSpec("euclidean", 12, 9, seed=5, params={"variant": 3}),
        CultureSpec("lin_ic", 12, 9, seed=5),
        CultureSpec("iam_mixture", 12, 9, seed=5, params={"k": 3}),
        CultureSpec("uneven_party_list", 12, 9, seed=5),
    ):
        assert np.array_equal(sample(spec).matrix, sample(spec).matrix)
        other = sample(spec.with_seed(6)).matrix
        assert not np.array_equal(sample(spec).matrix, other) or spec.family == "uneven_party_list"


def test_p_ic_statistics():
    e = gen_p_ic(60, 60, 0.5, seed=1)
    sigma = 0.5 / 60  # std of the saturation estimate
    assert abs(stats(e).satr - 0.5) <= 3 * sigma * 10  # loose 60x60 band
    assert gen_p_ic(5, 4, 1.0, seed=0).matrix.all()
    big = gen_p_ic(20, 5000, 0.3, seed=2)
    freq = big.approval_counts() / 5000
    band = 4 * np.sqrt(0.3 * 0.7 / 5000)
    assert (np.abs(freq - 0.3) <= band).all()


def test_iam_statistics():
    probs = np.linspace(0.05, 0.95, 10)
    e = gen_iam(10, 5000, probs, seed=3)
    freq = e.approval_counts() / 5000
    band = 4 * np.sqrt(probs * (1 - probs) / 5000)
    assert (np.abs(freq - probs) <= band).all()
    with pytest.raises(ValueError):
        gen_iam(3, 2, [0.5], seed=0)


def test_resampling_matches_id_at_zero_noise():
    assert np.array_equal(gen_resampling(40, 25, 0.3, 0.0, seed=9).matrix, gen_p_id(40, 25, 0.3).matrix)
    # expected saturation stays p for every phi
    for phi in (0.2, 0.7, 1.0):
        e = gen_resampling(30, 4000, 0.4, phi, seed=10)
        band = 4 * np.sqrt(0.4 * 0.6 / (4000 * 30)) + 0.4 / 30
        assert abs(stats(e).satr - 0.4) <= band


def test_resampling_per_candidate_frequencies():
    m, n, p, phi = 12, 5000, 0.25, 0.5
    e = gen_resampling(m, n, p, phi, seed=4)
    freq = e.approval_counts() / n
    central = np.zeros(m)
    central[: int(p * m)] = 1
    expected = (1 - phi) * central + phi * p
    band = 4 * np.sqrt(expected * (1 - expected) / n) + 1e-9
    assert (np.abs(freq - expected) <= band).all()


def test_euclidean_variants():
    e4 = gen_euclidean(100, 50, 4, seed=1)
    assert (e4.ballot_lengths() == 10).all()
    e4_small = gen_euclidean(6, 10, 4, seed=1)
    assert (e4_small.ballot_lengths() == 6).all()
    e5 = gen_euclidean(30, 40, 5, seed=2)
    assert e5.ballot_lengths().min() >= 1
    e1 = gen_euclidean(50, 50, 1, seed=3)
    e2 = gen_euclidean(50, 50, 2, seed=3)
    assert stats(e2).avl > stats(e1).avl  # larger radius approves more
    with pytest.raises(ValueError):
        gen_euclidean(10, 10, 6, seed=0)


def test_id_ic_structure():
    e = gen_id_ic(20, 30, 0.5, seed=7)
    head = e.matrix[:15]
    assert (head == head[0]).all()
    assert head[0, :10].all() and not head[0, 10:].any()


def test_lin_ic_first_voter_approves_all():
    e = gen_lin_ic(25, 10, seed=8)
    assert e.matrix[0].all()
    assert stats(e).satr > 0.3


def test_noisy_zero_phi_is_identity():
    base = gen_k_party(30, 30, 3)
    assert np.array_equal(gen_noisy(base, 0.0, seed=1).matrix, base.matrix)
    noisy = gen_noisy(base, 0.6, seed=1)
    assert not np.array_equal(noisy.matrix, base.matrix)
    assert abs(stats(noisy).satr - stats(base).satr) < 0.08


def test_id_mixture_distinct_ballots():
    e = gen_id_mixture(100, 1000, 2, 0.5, seed=6)
    distinct = {row.tobytes() for row in e.matrix}
    assert len(distinct) <= 2


def test_iam_mixture_runs():
    e = gen_iam_mixture(40, 200, 4, seed=2)
    assert e.num_voters == 200 and e.num_candidates == 40


def test_uneven_party_list_blocks():
    e = gen_uneven_party_list(100, 100, seed=3)
    mat = e.matrix
    # every ballot is a contiguous block and blocks tile the candidates
    starts = {tuple(np.flatnonzero(row)) for row in mat}
    blocks = sorted(starts)
    assert sum(len(b) for b in blocks) == 100
    assert blocks[0][0] == 0
    for prev, nxt in zip(blocks, blocks[1:]):
        assert nxt[0] == prev[-1] + 1
        assert nxt == tuple(range(nxt[0], nxt[-1] + 1))


def test_culture_spec_round_trip():
    base = CultureSpec("k_party", 10, 10, params={"k": 2})
    spec = CultureSpec("noisy", 10, 10, seed=4, params={"phi": 0.3, "base": base}, label="noisy demo")
    doc = json.loads(json.dumps(spec.to_dict()))
    back = CultureSpec.from_dict(doc)
    assert back == spec
    assert np.array_equal(sample(back).matrix, sample(spec).matrix)
    with pytest.raises(ValueError):
        CultureSpec("martian", 5, 5)
    with pytest.raises(ValueError, match="needs parameter"):
        CultureSpec("id_mixture", 5, 5, params={"p": 0.5})
    with pytest.raises(ValueError, match="needs parameter"):
        CultureSpec.from_dict({"family": "noisy", "m": 5, "n": 5, "params": {"phi": 0.2}})


def test_sample_validates_square_families():
    with pytest.raises(ValueError):
        sample(CultureSpec("diagonal", 10, 12))
    assert sample(CultureSpec("diagonal", 10, 10)).num_voters == 10


def family_params(m: int, n: int) -> dict:
    """Parameters of every family for an ``n x m`` spec."""
    return {
        "p_id": {"p": 0.4},
        "k_party": {"k": 3},
        "xy_two_party": {"x": 0.3, "y": 0.6},
        "diagonal": {},
        "triangle": {},
        "cyclic": {},
        "p_ic": {"p": 0.4},
        "iam": {"probs": [0.2] * m},
        "resampling": {"p": 0.4, "phi": 0.3},
        "euclidean": {"variant": 2},
        "id_ic": {"p": 0.4},
        "lin_ic": {},
        "noisy": {"phi": 0.4, "base": CultureSpec("k_party", m, n, params={"k": 2})},
        "id_mixture": {"k": 3, "p": 0.4},
        "iam_mixture": {"k": 3},
        "uneven_party_list": {},
    }


def test_all_families_produce_valid_elections():
    params = family_params(12, 12)
    assert set(params) == set(FAMILIES)
    for family, par in params.items():
        e = sample(CultureSpec(family, 12, 12, seed=1, params=par))
        assert e.num_candidates == 12 and e.num_voters == 12
        assert e.matrix.max() <= 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sample_draws_the_shape_its_spec_states(family):
    # a size budget reads (spec.n, spec.m) before anything is drawn
    m, n = (9, 9) if FAMILIES[family].square else (13, 7)
    spec = CultureSpec(family, m, n, seed=2, params=family_params(m, n)[family])
    mat = sample(spec).matrix
    assert mat.shape == (spec.n, spec.m)
    # the array the sampler built, kept without a copy: still C-contiguous and read-only
    assert mat.dtype == np.uint8 and mat.flags.c_contiguous and not mat.flags.writeable


def test_the_paper_corpora_construct():
    specs = compass_specs() + [en.spec for en in synthetic_map_entries(SYNTHETIC_MAP_SEED)]
    assert len(specs) == 14 + 244
    noisy = [spec for spec in specs if spec.family == "noisy"]
    assert len(noisy) == 2 + 2 + 25  # the map holds the compass too
    for spec in noisy:
        assert (spec.params["base"].m, spec.params["base"].n) == (spec.m, spec.n)


@pytest.mark.parametrize("m, n, field", [(5, 5, "/m"), (20, 5, "/n"), (12, 20, "/m")])
def test_noisy_spec_keeps_its_base_shape(m, n, field):
    base = CultureSpec("p_ic", 20, 12, params={"p": 0.5})
    for build in (
        lambda: CultureSpec("noisy", m, n, params={"phi": 0.5, "base": base}),
        lambda: CultureSpec("noisy", m, n, params={"phi": 0.5, "base": base.to_dict()}),
        lambda: CultureSpec.from_dict(
            {"family": "noisy", "m": m, "n": n, "params": {"phi": 0.5, "base": base.to_dict()}}
        ),
    ):
        with pytest.raises(SpecError, match="keeps the base's shape m=20 n=12") as info:
            build()
        assert info.value.field == field
    spec = CultureSpec("noisy", 20, 12, params={"phi": 0.5, "base": base})
    assert sample(spec).matrix.shape == (12, 20)


def test_noisy_dict_base_is_checked_and_read_when_built():
    bad = {"family": "p_ic", "m": 5, "n": 5.5, "params": {"p": 0.5}}
    with pytest.raises(SpecError) as info:
        CultureSpec("noisy", 5, 5, params={"phi": 0.5, "base": bad})
    assert info.value.field == "/params/base/n"
    doc = {"family": "p_ic", "m": 5, "n": 6, "seed": 3, "params": {"p": 0.5}}
    spec = CultureSpec("noisy", 5, 6, params={"phi": 0.5, "base": doc})
    assert spec.params["base"] == CultureSpec.from_dict(doc)
    assert spec == CultureSpec.from_dict(spec.to_dict())


def test_spec_keeps_its_own_params():
    params = {"p": 0.5}
    spec = CultureSpec("p_ic", 5, 5, params=params)
    params["p"] = "not a number"
    del params["p"]
    assert spec.params == {"p": 0.5}
    base = {"family": "p_ic", "m": 5, "n": 5, "params": {"p": 0.5}}
    noisy_params = {"phi": 0.5, "base": base}
    noisy = CultureSpec("noisy", 5, 5, params=noisy_params)
    noisy_params["phi"] = 2.0
    base["m"] = 9
    want = CultureSpec("p_ic", 5, 5, params={"p": 0.5})
    assert noisy == CultureSpec("noisy", 5, 5, params={"phi": 0.5, "base": want})


def test_iam_rejects_non_finite_probabilities():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gen_iam(3, 4, [0.5, bad, 0.5], seed=0)


@pytest.mark.parametrize("key", ["m", "n", "seed"])
@pytest.mark.parametrize("value", [5.9, 5.0, "5", True, None])
def test_spec_sizes_and_seed_must_be_integers(key, value):
    doc = {"family": "p_ic", "m": 5, "n": 5, "seed": 1, "params": {"p": 0.5}, key: value}
    with pytest.raises(SpecError, match="must be an integer") as info:
        CultureSpec.from_dict(doc)
    assert info.value.field == f"/{key}"


def test_spec_accepts_numpy_integers():
    spec = CultureSpec("p_ic", np.int64(6), np.uint16(4), seed=np.uint64(2**64 - 1), params={"p": 0.5})
    want = sample(CultureSpec("p_ic", 6, 4, seed=2**64 - 1, params={"p": 0.5}))
    assert np.array_equal(sample(spec).matrix, want.matrix)


@pytest.mark.parametrize(
    "family, params, field",
    [
        ("p_ic", {"p": "0.5"}, "/params/p"),
        ("resampling", {"p": 0.5, "phi": None}, "/params/phi"),
        ("k_party", {"k": 2.5}, "/params/k"),
        ("euclidean", {"variant": "4"}, "/params/variant"),
        ("iam", {"probs": "0.5"}, "/params/probs"),
        ("iam", {"probs": [0.5, "0.5"]}, "/params/probs/1"),
        ("noisy", {"phi": 0.5, "base": 3}, "/params/base"),
        ("noisy", {"phi": 0.5, "base": {"family": "p_ic", "m": 5, "n": 5.5, "params": {"p": 0.5}}},
         "/params/base/n"),
    ],
)
def test_spec_parameters_are_type_checked_when_built(family, params, field):
    with pytest.raises(SpecError) as info:
        CultureSpec.from_dict({"family": family, "m": 5, "n": 5, "params": params})
    assert info.value.field == field


@pytest.mark.parametrize(
    "doc, field, message",
    [
        ({"family": "p_ic", "params": {"p": 1.5}}, "/params/p", "must lie in [0, 1], got 1.5"),
        ({"family": "p_ic", "params": {"p": float("nan")}}, "/params/p", "must lie in [0, 1], got nan"),
        ({"family": "resampling", "params": {"p": 0.5, "phi": -0.1}}, "/params/phi", "must lie in"),
        ({"family": "xy_two_party", "params": {"x": 0.5, "y": 2}}, "/params/y", "must lie in"),
        ({"family": "k_party", "params": {"k": 6}}, "/params/k", "party count must satisfy"),
        ({"family": "k_party", "params": {"k": 0}}, "/params/k", "party count must satisfy"),
        ({"family": "id_mixture", "params": {"k": 0, "p": 0.5}}, "/params/k", "group count must be positive"),
        ({"family": "iam_mixture", "params": {"k": -1}}, "/params/k", "group count must be positive"),
        ({"family": "euclidean", "params": {"variant": 6}}, "/params/variant", "euclidean variant must be 1..5"),
        ({"family": "iam", "params": {"probs": [0.5] * 4}}, "/params/probs", "need 5 per-candidate"),
        ({"family": "iam", "params": {"probs": [0.5, 0.5, float("inf"), 0.5, 0.5]}}, "/params/probs/2",
         "must lie in"),
        ({"family": "noisy", "params": {"phi": 1.1, "base": {"family": "lin_ic", "m": 5, "n": 5}}},
         "/params/phi", "must lie in"),
        ({"family": "noisy", "params": {"phi": 0.5, "base": {"family": "p_ic", "m": 5, "n": 5, "params": {"p": 2}}}},
         "/params/base/params/p", "must lie in"),
        ({"family": "noisy", "params": {"phi": 0.5, "base": {"m": 5, "n": 5}}}, "/params/base/family",
         "required field is missing"),
        ({"family": "p_ic", "m": 0, "params": {"p": 0.5}}, "/m", "election sizes must be positive"),
        ({"family": "lin_ic", "n": -2}, "/n", "election sizes must be positive"),
        ({"family": "triangle", "n": 6}, "/n", "triangle elections require n = m, got m=5, n=6"),
        ({"family": "martian"}, "/family", "unknown family 'martian'"),
        ({"family": ["p_ic"]}, "/family", "unknown family"),
        ({"family": "p_ic", "params": {}}, "/params/p", "family 'p_ic' needs parameter(s) p"),
        ({"family": "lin_ic", "params": [0.5]}, "/params", "must be an object"),
        # a key the family does not read would only have ended up in the label
        ({"family": "p_ic", "params": {"p": 0.5, "extra": 1}}, "/params/extra", "not a parameter of p_ic"),
        ({"family": "diagonal", "params": {"p": 0.5}}, "/params/p", "not a parameter of diagonal"),
    ],
)
def test_spec_ranges_are_checked_when_built(doc, field, message):
    with pytest.raises(SpecError) as info:
        CultureSpec.from_dict({"m": 5, "n": 5, **doc})
    assert info.value.field == field and message in info.value.message


@pytest.mark.parametrize(
    "draw, field",
    [
        (lambda: gen_p_id(5, 3, 1.5), "/params/p"),
        (lambda: gen_k_party(10, 4, 5), "/params/k"),
        (lambda: gen_iam(3, 2, [0.5], seed=0), "/params/probs"),
        (lambda: gen_euclidean(10, 10, 6, seed=0), "/params/variant"),
        (lambda: gen_id_mixture(5, 5, 0, 0.5, seed=0), "/params/k"),
        (lambda: gen_noisy(gen_k_party(4, 4, 2), 1.5, seed=0), "/params/phi"),
        (lambda: gen_diagonal(0), "/m"),
        (lambda: gen_lin_ic(4, 0, seed=0), "/n"),
    ],
    ids=["p_id", "k_party", "iam", "euclidean", "id_mixture", "noisy", "diagonal", "lin_ic"],
)
def test_samplers_refuse_through_the_spec_rules(draw, field):
    # a direct call meets the same rule, and the same field, as a spec
    with pytest.raises(SpecError) as info:
        draw()
    assert info.value.field == field


# -- per-voter streams read through one re-keyed bit generator -------------


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    substreams=st.lists(
        st.one_of(st.integers(0, 2**32 + 2), st.integers(2**32, 2**64 - 1)), max_size=12
    ),
    count=st.integers(0, 13),
)
@example(seed=2**64 - 1, substreams=[0, 2**32, 2**64 - 1, 0], count=5)
def test_stream_uniforms_rows_are_fresh_generators(seed, substreams, count):
    got = stream_uniforms(seed, substreams, count)
    assert got.shape == (len(substreams), count) and got.dtype == np.float64
    for row, sub in zip(got, substreams):
        assert row.tobytes() == oracles.seeded_rng(seed, sub).random(count).tobytes()


# the ends, where every draw or none is approved, and values between them
_prob = st.one_of(
    st.sampled_from([0.0, 1.0]), st.integers(1, 99).map(lambda i: i / 100), st.floats(0.0, 1.0)
)


@st.composite
def random_draws(draw):
    """A randomized family with its parameters, sizes and seed."""
    family = draw(st.sampled_from(
        ["p_ic", "iam", "resampling", "euclidean", "id_ic", "lin_ic", "noisy",
         "id_mixture", "iam_mixture", "cyclic"]
    ))
    m = draw(st.integers(1, 13))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**64 - 1))
    params = {
        "p_ic": lambda: {"p": draw(_prob)},
        "iam": lambda: {"probs": draw(st.lists(_prob, min_size=m, max_size=m))},
        "resampling": lambda: {"p": draw(_prob), "phi": draw(_prob)},
        "euclidean": lambda: {"variant": draw(st.integers(1, 5))},
        "id_ic": lambda: {"p": draw(_prob)},
        "lin_ic": dict,
        "noisy": lambda: {"phi": draw(_prob), "base_p": draw(_prob)},
        "id_mixture": lambda: {"k": draw(st.integers(1, 5)), "p": draw(_prob)},
        "iam_mixture": lambda: {"k": draw(st.integers(1, 5))},
        "cyclic": dict,
    }[family]()
    return family, m, n, seed, params


def _both_samplers(family, m, n, seed, par):
    if family == "noisy":
        base = oracles.gen_p_ic(m, n, par["base_p"], seed ^ 1)
        return gen_noisy(base, par["phi"], seed), oracles.gen_noisy(base, par["phi"], seed)
    if family == "cyclic":
        return gen_cyclic(m), oracles.gen_cyclic(m)
    draw_with = {
        "p_ic": lambda g: g.gen_p_ic(m, n, par["p"], seed),
        "iam": lambda g: g.gen_iam(m, n, par["probs"], seed),
        "resampling": lambda g: g.gen_resampling(m, n, par["p"], par["phi"], seed),
        "euclidean": lambda g: g.gen_euclidean(m, n, par["variant"], seed),
        "id_ic": lambda g: g.gen_id_ic(m, n, par["p"], seed),
        "lin_ic": lambda g: g.gen_lin_ic(m, n, seed),
        "id_mixture": lambda g: g.gen_id_mixture(m, n, par["k"], par["p"], seed),
        "iam_mixture": lambda g: g.gen_iam_mixture(m, n, par["k"], seed),
    }[family]
    return draw_with(generators), draw_with(oracles)


@settings(max_examples=300, deadline=None)
@given(draw=random_draws(), block=st.sampled_from([1, 7, 40, generators._BLOCK_DRAWS]))
@example(draw=("resampling", 4, 1, 2**64 - 1, {"p": 0.0, "phi": 1.0}), block=1)
@example(draw=("euclidean", 12, 40, 0, {"variant": 5}), block=7)
def test_samplers_match_the_per_voter_generators(draw, block):
    """Every randomized family is byte-identical to the per-voter loops,
    whatever block of voters its draws are read in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_BLOCK_DRAWS", block)
        new, old = _both_samplers(*draw)
    assert new.matrix.dtype == old.matrix.dtype == np.uint8
    assert new.matrix.tobytes() == old.matrix.tobytes() and new.matrix.shape == old.matrix.shape


def test_compass_cultures_match_the_per_voter_generators(monkeypatch):
    specs = [spec.with_seed(seed) for spec in compass_specs() for seed in (0, 2**64 - 1)]
    new = [sample(spec).matrix for spec in specs]
    for name in ("gen_p_ic", "gen_noisy", "gen_id_ic", "gen_lin_ic", "gen_cyclic"):
        monkeypatch.setattr(generators, name, getattr(oracles, name))
    for spec, got in zip(specs, new):
        assert got.tobytes() == sample(spec).matrix.tobytes(), spec


def test_samplers_build_no_bit_generator_per_voter(monkeypatch):
    built = []
    real = core.Philox

    def counting(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "Philox", counting)
    for spec in (
        CultureSpec("p_ic", 30, 1000, seed=3, params={"p": 0.4}),
        CultureSpec("resampling", 30, 1000, seed=3, params={"p": 0.4, "phi": 0.5}),
    ):
        built.clear()
        assert sample(spec).num_voters == 1000
        assert len(built) <= 2


def test_sample_peak_memory_is_one_matrix_plus_one_block():
    m, n = 200, 50_000
    spec = CultureSpec("p_ic", m, n, seed=1, params={"p": 0.3})
    tracemalloc.start()
    try:
        e = sample(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.matrix.shape == (n, m)
    # one block of float64 draws and its 0/1 comparison: no second n x m copy
    assert peak <= n * m + 9 * generators._BLOCK_DRAWS + 2**20


def test_resampling_peak_memory_is_the_matrix_plus_one_block():
    m, n = 200, 20_000
    tracemalloc.start()
    try:
        e = gen_resampling(m, n, 0.3, 0.5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.matrix.shape == (n, m)
    # an unblocked (n, 2m) float64 draw would be 64 MB here
    assert peak <= n * m + 16 * 2**20
