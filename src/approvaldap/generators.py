"""Seeded samplers for special and synthetic election families.

Randomized families draw every voter from its own counter-based
substream: voter ``i``'s draws are the first draws of Philox substream
``(master, i)``, where ``master`` hashes the family and the seed.  The
samplers read those streams in blocks of voters through one re-keyed bit
generator (:func:`~approvaldap.core.stream_uniforms`), so a ballot depends
neither on ``n`` nor on the block size, and elections are reproducible
across platforms.  Deterministic families (identity, party, diagonal,
triangle, cyclic) ignore the seed.

Each family states the range rule of every parameter it reads in
:data:`FAMILIES`.  A :class:`CultureSpec` is checked against them when it
is built, so any spec that exists can be drawn; the samplers refuse a
direct call through the same rules.  Either way a refusal is a
:class:`SpecError` at the field of the spec's dict form, such as
``/params/p`` or ``/n``.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import Election, seeded_streams, stream_uniforms

__all__ = [
    "CultureSpec",
    "SpecError",
    "FAMILIES",
    "Family",
    "sample",
    "gen_p_id",
    "gen_k_party",
    "gen_xy_two_party",
    "gen_diagonal",
    "gen_triangle",
    "gen_cyclic",
    "gen_p_ic",
    "gen_iam",
    "gen_resampling",
    "gen_euclidean",
    "gen_id_ic",
    "gen_lin_ic",
    "gen_noisy",
    "gen_id_mixture",
    "gen_iam_mixture",
    "gen_uneven_party_list",
]

# substream layout: voter i draws from substream i; election-level draws
# (point clouds, group splits, per-group parameters) start here
_ELECTION_STREAM = 1 << 32

# float64 draws read per block of voters: 2 MB of scratch whatever n is
_BLOCK_DRAWS = 1 << 18


def _master(family: str, seed: int) -> int:
    digest = hashlib.blake2b(f"{family}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _voter_rows(master: int, voters: range, m: int, draws: int, approve) -> np.ndarray:
    """uint8 ballots of ``voters``, ``m`` wide, read in blocks of voters.

    ``approve(rows, u)`` maps a slice of voter indices and the first
    ``draws`` uniforms of each of those voters' substreams to their
    ballots, so a ballot depends neither on ``n`` nor on the block size.
    """
    out = np.empty((len(voters), m), dtype=np.uint8)
    step = max(1, _BLOCK_DRAWS // draws)
    for start in range(0, len(voters), step):
        block = voters[start : start + step]
        rows = slice(block.start, block.stop)
        out[start : start + len(block)] = approve(rows, stream_uniforms(master, block, draws))
    return out


def _id_prefix(m: int, p: float) -> np.ndarray:
    approved = int(math.floor(p * m))
    ballot = np.zeros(m, dtype=np.uint8)
    ballot[:approved] = 1
    return ballot


def _split_sizes(total: int, k: int) -> list[int]:
    # equal sizes up to +/-1; earlier groups receive the extras
    base, extras = divmod(total, k)
    return [base + 1] * extras + [base] * (k - extras)


# -- special (deterministic) elections --------------------------------


def gen_p_id(m: int, n: int, p: float) -> Election:
    """Identity election: every voter approves the same first ``floor(p*m)`` candidates."""
    _check_family("p_id", m, n, p=p)
    return Election._owning(np.tile(_id_prefix(m, p), (n, 1)))


def gen_k_party(m: int, n: int, k: int) -> Election:
    """``k`` equal blocks of candidates and voters; block ``i`` voters approve block ``i``."""
    _check_family("k_party", m, n, k=k)
    cand_sizes = _split_sizes(m, k)
    voter_sizes = _split_sizes(n, k)
    return _party_blocks(m, cand_sizes, voter_sizes)


def _party_blocks(m: int, cand_sizes: Sequence[int], voter_sizes: Sequence[int]) -> Election:
    mat = np.zeros((sum(voter_sizes), m), dtype=np.uint8)
    c0 = v0 = 0
    for cs, vs in zip(cand_sizes, voter_sizes):
        mat[v0 : v0 + vs, c0 : c0 + cs] = 1
        c0 += cs
        v0 += vs
    return Election._owning(mat)


def gen_xy_two_party(m: int, n: int, x: float, y: float) -> Election:
    """Two-party election whose first party holds an ``x`` fraction of the
    candidates and a ``y`` fraction of the voters."""
    _check_family("xy_two_party", m, n, x=x, y=y)
    c1 = int(math.floor(x * m))
    v1 = int(math.floor(y * n))
    return _party_blocks(m, [c1, m - c1], [v1, n - v1])


def gen_diagonal(m: int) -> Election:
    """The ``m``-party election: each voter approves exactly their own candidate."""
    return gen_k_party(m, m, m)


def gen_triangle(m: int) -> Election:
    """Voter ``i`` approves the first ``i`` candidates (requires ``n = m``)."""
    _check_family("triangle", m, m)
    return Election._owning(np.tril(np.ones((m, m), dtype=np.uint8)))


def gen_cyclic(m: int) -> Election:
    """First ballot approves candidate 1 and the last ``floor(m/2) - 1``
    candidates; each next ballot is the previous shifted cyclically right."""
    _check_family("cyclic", m, m)
    first = np.zeros(m, dtype=np.uint8)
    first[0] = 1
    tail = max(m // 2 - 1, 0)
    if tail:
        first[m - tail :] = 1
    # ballot i is ``first`` rolled right by i
    idx = np.arange(m)
    return Election._owning(first[(idx - idx[:, None]) % m])


# -- randomized cultures -----------------------------------------------


def gen_p_ic(m: int, n: int, p: float, seed: int) -> Election:
    """Impartial culture: every entry approved independently with probability ``p``."""
    _check_family("p_ic", m, n, p=p)
    master = _master("p_ic", seed)
    return Election._owning(_voter_rows(master, range(n), m, m, lambda rows, u: u < p))


def gen_iam(m: int, n: int, probs: Sequence[float], seed: int) -> Election:
    """Independent approvals with a per-candidate probability vector."""
    _check_family("iam", m, n, probs=probs)
    pvec = np.asarray(probs, dtype=np.float64)
    master = _master("iam", seed)
    return Election._owning(_voter_rows(master, range(n), m, m, lambda rows, u: u < pvec))


def _resampled(u: np.ndarray, central: np.ndarray, p, phi: float) -> np.ndarray:
    # a voter's first m draws pick the resampled entries, the next m redraw them
    m = central.shape[-1]
    return np.where(u[:, :m] < phi, u[:, m:] < p, central)


def gen_resampling(m: int, n: int, p: float, phi: float, seed: int) -> Election:
    """Each entry copies the central identity ballot with probability
    ``1 - phi`` and is otherwise redrawn with approval probability ``p``."""
    _check_family("resampling", m, n, p=p, phi=phi)
    central = _id_prefix(m, p).astype(bool)
    master = _master("resampling", seed)
    return Election._owning(
        _voter_rows(master, range(n), m, 2 * m, lambda rows, u: _resampled(u, central, p, phi))
    )


def gen_euclidean(m: int, n: int, variant: int, seed: int) -> Election:
    """Planar spatial model: points uniform on the unit square.

    Variants: (1) approve within radius 0.117, (2) within radius 0.167,
    (3) within a per-voter radius uniform on [0, 0.5], (4) approve the
    ``min(10, m)`` nearest candidates, (5) approve a per-voter uniform
    number of nearest candidates from 1..m.
    """
    _check_family("euclidean", m, n, variant=variant)
    rng = seeded_streams(_master("euclidean", seed))(_ELECTION_STREAM)
    cand_pts = rng.random((m, 2))
    voter_pts = rng.random((n, 2))
    # bitwise np.linalg.norm(voter_pts[:, None] - cand_pts, axis=2), without
    # its (n, m, 2) temporaries
    dist = voter_pts[:, 0, None] - cand_pts[:, 0]
    dist *= dist
    dy = voter_pts[:, 1, None] - cand_pts[:, 1]
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    if variant in (1, 2):
        radius = 0.117 if variant == 1 else 0.167
        mat = dist < radius
    elif variant == 3:
        radii = rng.random(n) * 0.5
        mat = dist < radii[:, None]
    else:
        counts = np.full(n, min(10, m)) if variant == 4 else rng.integers(1, m + 1, size=n)
        order = np.argsort(dist, axis=1, kind="stable")
        # each candidate's place in its voter's stable distance order
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.broadcast_to(np.arange(m), order.shape), axis=1)
        mat = ranks < counts[:, None]
    return Election._owning(mat.astype(np.uint8))


def gen_id_ic(m: int, n: int, p: float, seed: int) -> Election:
    """First half of the voters share the ``p``-identity ballot, the rest
    are impartial culture with the same ``p``."""
    _check_family("id_ic", m, n, p=p)
    n_id = n // 2
    master = _master("id_ic", seed)
    ic = _voter_rows(master, range(n_id, n), m, m, lambda rows, u: u < p)
    return Election._owning(np.concatenate([np.tile(_id_prefix(m, p), (n_id, 1)), ic]))


def gen_lin_ic(m: int, n: int, seed: int) -> Election:
    """Impartial culture with approval probability sliding from 1 down to ``1/n``."""
    _check_family("lin_ic", m, n)
    master = _master("lin_ic", seed)

    def approve(rows, u):
        return u < (1.0 - np.arange(rows.start, rows.stop) / n)[:, None]

    return Election._owning(_voter_rows(master, range(n), m, m, approve))


def gen_noisy(base: Election, phi: float, seed: int) -> Election:
    """Resample each ballot of ``base`` around itself: entries are kept
    with probability ``1 - phi`` and otherwise redrawn with that ballot's
    own approval fraction."""
    m = base.num_candidates
    _check_family("noisy", m, base.num_voters, phi=phi)
    master = _master("noisy", seed)
    fractions = base.ballot_lengths() / m
    central = base.matrix.astype(bool)

    def approve(rows, u):
        return _resampled(u, central[rows], fractions[rows, None], phi)

    mat = _voter_rows(master, range(base.num_voters), m, 2 * m, approve)
    return Election._owning(mat, label=base.label)


def _group_uniforms(master: int, k: int, m: int) -> np.ndarray:
    # row g: the first m draws of election slot 1 + g
    return stream_uniforms(master, range(_ELECTION_STREAM + 1, _ELECTION_STREAM + 1 + k), m)


def gen_id_mixture(m: int, n: int, k: int, p: float, seed: int) -> Election:
    """Voters split uniformly into ``k`` groups; each group shares one
    ballot drawn from ``p``-impartial culture."""
    _check_family("id_mixture", m, n, k=k, p=p)
    master = _master("id_mixture", seed)
    groups = seeded_streams(master)(_ELECTION_STREAM).integers(0, k, size=n)
    ballots = _group_uniforms(master, k, m) < p
    return Election._owning(ballots.astype(np.uint8)[groups])


def gen_iam_mixture(m: int, n: int, k: int, seed: int) -> Election:
    """Voters split uniformly into ``k`` groups; each group draws its own
    per-candidate probabilities uniformly and votes independently."""
    _check_family("iam_mixture", m, n, k=k)
    master = _master("iam_mixture", seed)
    groups = seeded_streams(master)(_ELECTION_STREAM).integers(0, k, size=n)
    probs = _group_uniforms(master, k, m)
    return Election._owning(
        _voter_rows(master, range(n), m, m, lambda rows, u: u < probs[groups[rows]])
    )


def _random_composition(total: int, k: int, rng) -> list[int]:
    # uniform composition of `total` into k parts >= 1 (stars and bars)
    if k == 1:
        return [total]
    cuts = np.sort(rng.choice(total - 1, size=k - 1, replace=False)) + 1
    bounds = np.concatenate([[0], cuts, [total]])
    return list(np.diff(bounds))


def gen_uneven_party_list(m: int, n: int, seed: int) -> Election:
    """Party-list election with a Poisson(1)+3 number of parties and
    uniformly random (composition) block sizes for candidates and voters."""
    _check_family("uneven_party_list", m, n)
    rng = seeded_streams(_master("uneven_party_list", seed))(_ELECTION_STREAM)
    k = 3 + int(rng.poisson(1.0))
    k = min(k, m, n)
    cand_sizes = _random_composition(m, k, rng)
    voter_sizes = _random_composition(n, k, rng)
    return _party_blocks(m, cand_sizes, voter_sizes)


# -- the range rules of sizes and parameters ------------------------------


class SpecError(ValueError):
    """A culture spec field of the wrong type or value; ``field`` is its
    JSON pointer within the spec's dict form, such as ``/m`` or ``/params/p``."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):  # so that it crosses from a worker process intact
        return type(self), (self.field, self.message)


def _check_integer(value, field: str) -> None:
    # a JSON integer or a numpy one: bool is an int subclass, and int()
    # would truncate 5.9 and parse "5"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(field, f"must be an integer, got {value!r}")


def _check_real(value, field: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(field, f"must be a number, got {value!r}")


# Each rule below is ``rule(value, field, m, n)``: it refuses a family
# parameter of an ``n x m`` election as a SpecError at ``field``.


def _check_prob(value, field: str, m: int, n: int) -> None:
    _check_real(value, field)
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise SpecError(field, f"must lie in [0, 1], got {value}")


def _check_probs(value, field: str, m: int, n: int) -> None:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise SpecError(field, f"must be a list of numbers, got {value!r}")
    for i, item in enumerate(value):
        _check_prob(item, f"{field}/{i}", m, n)
    if len(value) != m:
        raise SpecError(field, f"need {m} per-candidate probabilities, got {len(value)}")


def _check_party_count(value, field: str, m: int, n: int) -> None:
    _check_integer(value, field)
    if not 1 <= value <= min(m, n):
        raise SpecError(field, f"party count must satisfy 1 <= k <= min(m, n), got k={value}")


def _check_group_count(value, field: str, m: int, n: int) -> None:
    _check_integer(value, field)
    if value < 1:
        raise SpecError(field, f"group count must be positive, got {value}")


def _check_variant(value, field: str, m: int, n: int) -> None:
    _check_integer(value, field)
    if value not in (1, 2, 3, 4, 5):
        raise SpecError(field, f"euclidean variant must be 1..5, got {value}")


def _check_base(value, field: str, m: int, n: int) -> None:
    if not isinstance(value, CultureSpec):
        raise SpecError(field, f"must be a culture spec, got {value!r}")
    if (value.m, value.n) != (m, n):
        shape = f"m={value.m} n={value.n}, not m={m} n={n}"
        raise SpecError(
            "/m" if value.m != m else "/n", f"the noisy family keeps the base's shape {shape}"
        )


def _check_family(family: str, m, n, **params) -> None:
    """Refuse an ``n x m`` election of ``family`` whose sizes or given
    ``params`` lie outside the family's rules, as a :class:`SpecError` at
    the field of the spec's dict form; specs and samplers both check here."""
    for name, size in (("m", m), ("n", n)):
        _check_integer(size, f"/{name}")
        if size < 1:
            raise SpecError(f"/{name}", f"election sizes must be positive, got m={m}, n={n}")
    if FAMILIES[family].square and m != n:
        raise SpecError("/n", f"{family} elections require n = m, got m={m}, n={n}")
    for name, value in params.items():
        FAMILIES[family].params[name](value, f"/params/{name}", m, n)


# -- the family table ----------------------------------------------------


@dataclass(frozen=True)
class Family:
    """How one family draws: ``draw(m=, n=, seed=, **params)``; the
    parameters it requires, each mapped to its range rule ``rule(value,
    field, m, n)``, which raises a :class:`SpecError` at ``field``; and
    whether it requires ``n = m``."""

    draw: Callable[..., Election]
    params: Mapping = field(default_factory=dict)
    square: bool = False


def _draw_noisy(m: int, n: int, seed: int, phi: float, base: "CultureSpec") -> Election:
    return gen_noisy(sample(base.with_seed(seed)), phi, seed)


FAMILIES: dict[str, Family] = {
    "p_id": Family(lambda m, n, seed, p: gen_p_id(m, n, p), {"p": _check_prob}),
    "k_party": Family(lambda m, n, seed, k: gen_k_party(m, n, k), {"k": _check_party_count}),
    "xy_two_party": Family(
        lambda m, n, seed, x, y: gen_xy_two_party(m, n, x, y), {"x": _check_prob, "y": _check_prob}
    ),
    "diagonal": Family(lambda m, n, seed: gen_diagonal(m), square=True),
    "triangle": Family(lambda m, n, seed: gen_triangle(m), square=True),
    "cyclic": Family(lambda m, n, seed: gen_cyclic(m), square=True),
    "p_ic": Family(gen_p_ic, {"p": _check_prob}),
    "iam": Family(gen_iam, {"probs": _check_probs}),
    "resampling": Family(gen_resampling, {"p": _check_prob, "phi": _check_prob}),
    "euclidean": Family(gen_euclidean, {"variant": _check_variant}),
    "id_ic": Family(gen_id_ic, {"p": _check_prob}),
    "lin_ic": Family(gen_lin_ic),
    "noisy": Family(_draw_noisy, {"phi": _check_prob, "base": _check_base}),
    "id_mixture": Family(gen_id_mixture, {"k": _check_group_count, "p": _check_prob}),
    "iam_mixture": Family(gen_iam_mixture, {"k": _check_group_count}),
    "uneven_party_list": Family(gen_uneven_party_list),
}


# -- declarative specs --------------------------------------------------


@dataclass(frozen=True)
class CultureSpec:
    """Declarative description of one election draw: an ``n x m``
    election of ``family``, for every family.

    ``params`` carries the family-specific parameters, copied into a dict
    of the spec's own; for the ``noisy`` family it holds ``phi`` plus a
    nested ``base`` spec (a dict is read with :meth:`from_dict`) of the
    same ``m`` and ``n``, whose own seed is superseded by the outer spec's
    seed when sampling.  A spec is checked in full when it is built: every
    field of the wrong type, out of its family's range (:class:`Family`)
    or not read by its family is refused there as a :class:`SpecError`, so
    :func:`sample` draws any spec that exists.  Specs serialize to plain
    dicts so experiment manifests can be stored as JSON.
    """

    family: str
    m: int
    n: int
    seed: int = 0
    params: Mapping = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.params, Mapping):
            raise SpecError("/params", f"must be an object, got {self.params!r}")
        params = dict(self.params)
        object.__setattr__(self, "params", params)  # later changes to the caller's dict stay out
        family = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if family is None:
            raise SpecError("/family", f"unknown family {self.family!r}")
        _check_integer(self.seed, "/seed")
        if self.label is not None and not isinstance(self.label, str):
            raise SpecError("/label", f"must be a string, got {self.label!r}")
        for name in params:
            if name not in family.params:
                raise SpecError(f"/params/{name}", f"not a parameter of {self.family}")
        missing = [name for name in family.params if name not in params]
        if missing:
            needs = f"family {self.family!r} needs parameter(s) {', '.join(missing)}"
            raise SpecError(f"/params/{missing[0]}", needs)
        if isinstance(params.get("base"), Mapping):
            try:
                params["base"] = CultureSpec.from_dict(params["base"])
            except SpecError as exc:
                raise SpecError(f"/params/base{exc.field}", exc.message) from None
        _check_family(self.family, self.m, self.n, **params)

    def with_seed(self, seed: int) -> "CultureSpec":
        return replace(self, seed=seed)

    def display_label(self) -> str:
        if self.label:
            return self.label
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()) if k != "base")
        return f"{self.family}({inner})#{self.seed}" if inner else f"{self.family}#{self.seed}"

    def to_dict(self) -> dict:
        params = dict(self.params)
        if "base" in FAMILIES[self.family].params:
            params["base"] = params["base"].to_dict()
        out = {"family": self.family, "m": self.m, "n": self.n, "seed": self.seed, "params": params}
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CultureSpec":
        for key in ("family", "m", "n"):
            if key not in data:
                raise SpecError(f"/{key}", "required field is missing")
        return cls(
            family=data["family"],
            m=data["m"],
            n=data["n"],
            seed=data.get("seed", 0),
            params=data.get("params", {}),
            label=data.get("label"),
        )


def sample(spec: CultureSpec) -> Election:
    """Draw the election described by a spec; deterministic per (spec, seed)."""
    e = FAMILIES[spec.family].draw(m=spec.m, n=spec.n, seed=spec.seed, **spec.params)
    e.label = spec.display_label()
    return e
