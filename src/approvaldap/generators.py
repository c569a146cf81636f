"""Seeded samplers for special and synthetic election families.

Randomized families draw every voter from its own counter-based
substream: voter ``i``'s draws are the first draws of Philox substream
``(master, i)``, where ``master`` hashes the family and the seed.  The
samplers read those streams in blocks of voters through one re-keyed bit
generator (:func:`~approvaldap.core.stream_uniforms`), so a ballot depends
neither on ``n`` nor on the block size, and elections are reproducible
across platforms.  Deterministic families (identity, party, diagonal,
triangle, cyclic) ignore the seed.
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


def _check_sizes(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"election sizes must be positive, got m={m}, n={n}")


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


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
    _check_sizes(m, n)
    _check_prob(p, "p")
    return Election(np.tile(_id_prefix(m, p), (n, 1)))


def gen_k_party(m: int, n: int, k: int) -> Election:
    """``k`` equal blocks of candidates and voters; block ``i`` voters approve block ``i``."""
    _check_sizes(m, n)
    if not 1 <= k <= min(m, n):
        raise ValueError(f"party count must satisfy 1 <= k <= min(m, n), got k={k}")
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
    return Election(mat)


def gen_xy_two_party(m: int, n: int, x: float, y: float) -> Election:
    """Two-party election whose first party holds an ``x`` fraction of the
    candidates and a ``y`` fraction of the voters."""
    _check_sizes(m, n)
    _check_prob(x, "x")
    _check_prob(y, "y")
    c1 = int(math.floor(x * m))
    v1 = int(math.floor(y * n))
    return _party_blocks(m, [c1, m - c1], [v1, n - v1])


def gen_diagonal(m: int) -> Election:
    """The ``m``-party election: each voter approves exactly their own candidate."""
    return gen_k_party(m, m, m)


def gen_triangle(m: int) -> Election:
    """Voter ``i`` approves the first ``i`` candidates (requires ``n = m``)."""
    _check_sizes(m, m)
    return Election(np.tril(np.ones((m, m), dtype=np.uint8)))


def gen_cyclic(m: int) -> Election:
    """First ballot approves candidate 1 and the last ``floor(m/2) - 1``
    candidates; each next ballot is the previous shifted cyclically right."""
    _check_sizes(m, m)
    first = np.zeros(m, dtype=np.uint8)
    first[0] = 1
    tail = max(m // 2 - 1, 0)
    if tail:
        first[m - tail :] = 1
    # ballot i is ``first`` rolled right by i
    idx = np.arange(m)
    return Election(first[(idx - idx[:, None]) % m])


# -- randomized cultures -----------------------------------------------


def gen_p_ic(m: int, n: int, p: float, seed: int) -> Election:
    """Impartial culture: every entry approved independently with probability ``p``."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    master = _master("p_ic", seed)
    return Election(_voter_rows(master, range(n), m, m, lambda rows, u: u < p))


def gen_iam(m: int, n: int, probs: Sequence[float], seed: int) -> Election:
    """Independent approvals with a per-candidate probability vector."""
    _check_sizes(m, n)
    pvec = np.asarray(probs, dtype=np.float64)
    if pvec.shape != (m,):
        raise ValueError(f"need {m} per-candidate probabilities, got shape {pvec.shape}")
    # NaN fails both comparisons
    if not ((pvec >= 0.0) & (pvec <= 1.0)).all():
        raise ValueError(f"per-candidate probabilities must lie in [0, 1], got {pvec.tolist()}")
    master = _master("iam", seed)
    return Election(_voter_rows(master, range(n), m, m, lambda rows, u: u < pvec))


def _resampled(u: np.ndarray, central: np.ndarray, p, phi: float) -> np.ndarray:
    # a voter's first m draws pick the resampled entries, the next m redraw them
    m = central.shape[-1]
    return np.where(u[:, :m] < phi, u[:, m:] < p, central)


def gen_resampling(m: int, n: int, p: float, phi: float, seed: int) -> Election:
    """Each entry copies the central identity ballot with probability
    ``1 - phi`` and is otherwise redrawn with approval probability ``p``."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    _check_prob(phi, "phi")
    central = _id_prefix(m, p).astype(bool)
    master = _master("resampling", seed)
    return Election(
        _voter_rows(master, range(n), m, 2 * m, lambda rows, u: _resampled(u, central, p, phi))
    )


def gen_euclidean(m: int, n: int, variant: int, seed: int) -> Election:
    """Planar spatial model: points uniform on the unit square.

    Variants: (1) approve within radius 0.117, (2) within radius 0.167,
    (3) within a per-voter radius uniform on [0, 0.5], (4) approve the
    ``min(10, m)`` nearest candidates, (5) approve a per-voter uniform
    number of nearest candidates from 1..m.
    """
    _check_sizes(m, n)
    if variant not in (1, 2, 3, 4, 5):
        raise ValueError(f"euclidean variant must be 1..5, got {variant}")
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
    return Election(np.asarray(mat, dtype=np.uint8))


def gen_id_ic(m: int, n: int, p: float, seed: int) -> Election:
    """First half of the voters share the ``p``-identity ballot, the rest
    are impartial culture with the same ``p``."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    n_id = n // 2
    master = _master("id_ic", seed)
    ic = _voter_rows(master, range(n_id, n), m, m, lambda rows, u: u < p)
    return Election(np.concatenate([np.tile(_id_prefix(m, p), (n_id, 1)), ic]))


def gen_lin_ic(m: int, n: int, seed: int) -> Election:
    """Impartial culture with approval probability sliding from 1 down to ``1/n``."""
    _check_sizes(m, n)
    master = _master("lin_ic", seed)

    def approve(rows, u):
        return u < (1.0 - np.arange(rows.start, rows.stop) / n)[:, None]

    return Election(_voter_rows(master, range(n), m, m, approve))


def gen_noisy(base: Election, phi: float, seed: int) -> Election:
    """Resample each ballot of ``base`` around itself: entries are kept
    with probability ``1 - phi`` and otherwise redrawn with that ballot's
    own approval fraction."""
    _check_prob(phi, "phi")
    m = base.num_candidates
    master = _master("noisy", seed)
    fractions = base.ballot_lengths() / m
    central = base.matrix.astype(bool)

    def approve(rows, u):
        return _resampled(u, central[rows], fractions[rows, None], phi)

    mat = _voter_rows(master, range(base.num_voters), m, 2 * m, approve)
    return Election(mat, label=base.label)


def _group_uniforms(master: int, k: int, m: int) -> np.ndarray:
    # row g: the first m draws of election slot 1 + g
    return stream_uniforms(master, range(_ELECTION_STREAM + 1, _ELECTION_STREAM + 1 + k), m)


def gen_id_mixture(m: int, n: int, k: int, p: float, seed: int) -> Election:
    """Voters split uniformly into ``k`` groups; each group shares one
    ballot drawn from ``p``-impartial culture."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    if k < 1:
        raise ValueError("group count must be positive")
    master = _master("id_mixture", seed)
    groups = seeded_streams(master)(_ELECTION_STREAM).integers(0, k, size=n)
    ballots = _group_uniforms(master, k, m) < p
    return Election(ballots.astype(np.uint8)[groups])


def gen_iam_mixture(m: int, n: int, k: int, seed: int) -> Election:
    """Voters split uniformly into ``k`` groups; each group draws its own
    per-candidate probabilities uniformly and votes independently."""
    _check_sizes(m, n)
    if k < 1:
        raise ValueError("group count must be positive")
    master = _master("iam_mixture", seed)
    groups = seeded_streams(master)(_ELECTION_STREAM).integers(0, k, size=n)
    probs = _group_uniforms(master, k, m)
    return Election(_voter_rows(master, range(n), m, m, lambda rows, u: u < probs[groups[rows]]))


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
    _check_sizes(m, n)
    rng = seeded_streams(_master("uneven_party_list", seed))(_ELECTION_STREAM)
    k = 3 + int(rng.poisson(1.0))
    k = min(k, m, n)
    cand_sizes = _random_composition(m, k, rng)
    voter_sizes = _random_composition(n, k, rng)
    return _party_blocks(m, cand_sizes, voter_sizes)


# -- the family table ----------------------------------------------------


@dataclass(frozen=True)
class Family:
    """How one family draws: ``draw(m, n, params, seed)``, the parameter
    names it requires, and whether it requires ``n = m``."""

    draw: Callable[[int, int, Mapping, int], Election]
    params: tuple = ()
    square: bool = False


def _draw_noisy(m: int, n: int, params: Mapping, seed: int) -> Election:
    base_spec = params["base"]
    if not isinstance(base_spec, CultureSpec):
        base_spec = CultureSpec.from_dict(base_spec)
    base = sample(base_spec.with_seed(seed))
    return gen_noisy(base, params["phi"], seed)


FAMILIES: dict[str, Family] = {
    "p_id": Family(lambda m, n, par, seed: gen_p_id(m, n, par["p"]), ("p",)),
    "k_party": Family(lambda m, n, par, seed: gen_k_party(m, n, int(par["k"])), ("k",)),
    "xy_two_party": Family(
        lambda m, n, par, seed: gen_xy_two_party(m, n, par["x"], par["y"]), ("x", "y")
    ),
    "diagonal": Family(lambda m, n, par, seed: gen_diagonal(m), square=True),
    "triangle": Family(lambda m, n, par, seed: gen_triangle(m), square=True),
    "cyclic": Family(lambda m, n, par, seed: gen_cyclic(m), square=True),
    "p_ic": Family(lambda m, n, par, seed: gen_p_ic(m, n, par["p"], seed), ("p",)),
    "iam": Family(lambda m, n, par, seed: gen_iam(m, n, par["probs"], seed), ("probs",)),
    "resampling": Family(
        lambda m, n, par, seed: gen_resampling(m, n, par["p"], par["phi"], seed), ("p", "phi")
    ),
    "euclidean": Family(
        lambda m, n, par, seed: gen_euclidean(m, n, int(par["variant"]), seed), ("variant",)
    ),
    "id_ic": Family(lambda m, n, par, seed: gen_id_ic(m, n, par["p"], seed), ("p",)),
    "lin_ic": Family(lambda m, n, par, seed: gen_lin_ic(m, n, seed)),
    "noisy": Family(_draw_noisy, ("phi", "base")),
    "id_mixture": Family(
        lambda m, n, par, seed: gen_id_mixture(m, n, int(par["k"]), par["p"], seed), ("k", "p")
    ),
    "iam_mixture": Family(
        lambda m, n, par, seed: gen_iam_mixture(m, n, int(par["k"]), seed), ("k",)
    ),
    "uneven_party_list": Family(lambda m, n, par, seed: gen_uneven_party_list(m, n, seed)),
}


# -- declarative specs --------------------------------------------------


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


def _check_reals(value, field: str) -> None:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise SpecError(field, f"must be a list of numbers, got {value!r}")
    for i, item in enumerate(value):
        _check_real(item, f"{field}/{i}")


def _check_base(value, field: str) -> None:
    if not isinstance(value, (CultureSpec, Mapping)):
        raise SpecError(field, f"must be a culture spec, got {value!r}")


# the type check of each family parameter, by name
_PARAM_CHECKS = {
    "p": _check_real,
    "phi": _check_real,
    "x": _check_real,
    "y": _check_real,
    "k": _check_integer,
    "variant": _check_integer,
    "probs": _check_reals,
    "base": _check_base,
}


@dataclass(frozen=True)
class CultureSpec:
    """Declarative description of one election draw.

    ``params`` carries the family-specific parameters; for the ``noisy``
    family it holds ``phi`` plus a nested ``base`` spec whose own seed is
    superseded by the outer spec's seed when sampling.  Specs serialize to
    plain dicts so experiment manifests can be stored as JSON.
    """

    family: str
    m: int
    n: int
    seed: int = 0
    params: Mapping = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self):
        family = FAMILIES.get(self.family)
        if family is None:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("m", "n", "seed"):
            _check_integer(getattr(self, name), f"/{name}")
        if self.label is not None and not isinstance(self.label, str):
            raise SpecError("/label", f"must be a string, got {self.label!r}")
        missing = [name for name in family.params if name not in self.params]
        if missing:
            raise ValueError(f"family {self.family!r} needs parameter(s) {', '.join(missing)}")
        for name in family.params:
            _PARAM_CHECKS[name](self.params[name], f"/params/{name}")
        if family.square and self.m != self.n:
            raise ValueError(f"{self.family} elections require n = m, got m={self.m}, n={self.n}")

    def with_seed(self, seed: int) -> "CultureSpec":
        return replace(self, seed=seed)

    def display_label(self) -> str:
        if self.label:
            return self.label
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()) if k != "base")
        return f"{self.family}({inner})#{self.seed}" if inner else f"{self.family}#{self.seed}"

    def to_dict(self) -> dict:
        params = dict(self.params)
        if "base" in params and isinstance(params["base"], CultureSpec):
            params["base"] = params["base"].to_dict()
        out = {"family": self.family, "m": self.m, "n": self.n, "seed": self.seed, "params": params}
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CultureSpec":
        params = dict(data.get("params", {}))
        if "base" in params and isinstance(params["base"], Mapping):
            try:
                params["base"] = cls.from_dict(params["base"])
            except SpecError as exc:
                raise SpecError(f"/params/base{exc.field}", exc.message) from None
        return cls(
            family=data["family"],
            m=data["m"],
            n=data["n"],
            seed=data.get("seed", 0),
            params=params,
            label=data.get("label"),
        )


def sample(spec: CultureSpec) -> Election:
    """Draw the election described by a spec; deterministic per (spec, seed)."""
    e = FAMILIES[spec.family].draw(spec.m, spec.n, spec.params, spec.seed)
    e.label = spec.display_label()
    return e
