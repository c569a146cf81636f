"""Approval election data model and basic structural operations.

An election is a set of candidates together with an ordered collection of
approval ballots, one per voter.  Ballots are stored as one read-only
``(n, m)`` uint8 0/1 matrix; the pairwise kernels in
:mod:`approvaldap.metrics` get their counts from matrix products of it.
Elections are immutable after construction; every operation here is pure
and returns fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "Election",
    "ElectionStats",
    "distinct_rows",
    "stats",
    "subsample",
]

_KEY_MASK = 0xFFFFFFFFFFFFFFFF


def seeded_streams(seed: int) -> Callable[[int], Generator]:
    """``stream(substream)``: the counter-based Philox stream keyed by
    ``(seed, substream)``, reproducible across platforms and threads, as a
    ``Generator`` that is the same object on every call, so each stream is
    valid until the next call.

    Streams with distinct keys are independent, so callers may draw from
    several substreams in any order and still obtain identical results.
    One ``Philox`` serves every call: its state is reset to the substream's
    key with a zero counter and empty buffers, which is the state a new
    ``Philox(key=...)`` starts from, so no generator (and no OS entropy for
    a discarded ``SeedSequence``) is built per substream.
    """
    bitgen = Philox(key=np.array([int(seed) & _KEY_MASK, 0], dtype=np.uint64))
    fresh = bitgen.state
    key = fresh["state"]["key"]
    rng = Generator(bitgen)

    def stream(substream: int) -> Generator:
        key[1] = int(substream) & _KEY_MASK
        bitgen.state = fresh
        return rng

    return stream


def stream_uniforms(seed: int, substreams: Iterable[int], count: int) -> np.ndarray:
    """``(len(substreams), count)`` float64 array whose row ``i`` is the first
    ``count`` uniforms of stream ``seeded_streams(seed)(substreams[i])``."""
    subs = list(substreams)
    out = np.empty((len(subs), count))
    stream = seeded_streams(seed)
    for row, sub in zip(out, subs):
        stream(sub).random(out=row)
    return out


class Election:
    """An approval election: ``m`` candidates and ``n`` binary ballots.

    Parameters
    ----------
    ballots
        An ``(n, m)`` array-like of 0/1 entries, one row per voter.  Row
        order is significant and duplicate rows are kept with multiplicity.
    label
        Optional identifier carried through experiments and file output.
    """

    __slots__ = ("_mat", "label", "_memo")

    def __init__(self, ballots, label: Optional[str] = None):
        mat = np.asarray(ballots)
        if mat.ndim != 2:
            raise ValueError(f"ballots must be two-dimensional, got shape {mat.shape}")
        n, m = mat.shape
        if n < 1 or m < 1:
            raise ValueError(f"election needs at least one voter and one candidate, got {n}x{m}")
        if mat.dtype != np.uint8:
            if not np.isin(mat, (0, 1)).all():
                raise ValueError("ballot entries must be 0 or 1")
        elif mat.max(initial=0) > 1:
            raise ValueError("ballot entries must be 0 or 1")
        # a private copy, so later writes to the caller's array change nothing
        mat = np.array(mat, dtype=np.uint8, order="C")
        mat.setflags(write=False)
        self._mat = mat
        self.label = label
        self._memo: dict = {}

    @classmethod
    def _owning(cls, mat: np.ndarray, label: Optional[str] = None) -> "Election":
        """An election whose ballots are ``mat`` itself, neither checked nor
        copied: a fresh C-contiguous ``(n, m)`` uint8 0/1 array, at least
        1x1, that no other code holds."""
        mat.setflags(write=False)
        e = cls.__new__(cls)
        e._mat, e.label, e._memo = mat, label, {}
        return e

    @classmethod
    def from_approval_sets(
        cls,
        num_candidates: int,
        approval_sets: Iterable[Iterable[int]],
        label: Optional[str] = None,
    ) -> "Election":
        """Build an election from per-voter collections of approved indices."""
        flat: list = []
        ends: list[int] = []  # end of each voter's run in ``flat``
        for votes in approval_sets:
            flat.extend(votes)
            ends.append(len(flat))
        if not ends:
            raise ValueError("election needs at least one voter")
        mat = np.zeros((len(ends), num_candidates), dtype=np.uint8)
        if flat:
            cols = np.asarray(flat)
            # a bool among integers would pass as an integer array
            dtype = np.dtype(bool) if set(map(type, flat)) & {bool, np.bool_} else cols.dtype
            if dtype.kind not in "iu":
                raise ValueError(f"candidate indices must be integers, got {dtype}")
            if cols.min() < 0 or cols.max() >= num_candidates:
                raise ValueError("approved candidate index out of range")
            rows = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
            mat[rows, cols] = 1
        return cls(mat, label=label)

    # -- basic shape ---------------------------------------------------

    @property
    def num_candidates(self) -> int:
        return self._mat.shape[1]

    @property
    def num_voters(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The ballots as a C-contiguous ``(n, m)`` uint8 0/1 array.

        This is the stored array itself, not a copy; it is read-only, so
        writing to it raises ``ValueError``.
        """
        return self._mat

    def approval_counts(self) -> np.ndarray:
        """Per-candidate approval scores ``|A(c_j)|`` as a read-only int64 vector."""
        return self._cache(
            "approval_counts", lambda: _read_only(self._mat.sum(axis=0, dtype=np.int64))
        )

    def ballot_lengths(self) -> np.ndarray:
        """Per-voter approval counts ``|A(v_i)|`` as a read-only int64 vector."""
        return self._cache(
            "ballot_lengths", lambda: _read_only(self._mat.sum(axis=1, dtype=np.int64))
        )

    def total_approvals(self) -> int:
        return int(self.ballot_lengths().sum())

    def distinct_ballots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`distinct_rows` of the ballots, memoised as read-only arrays."""
        return self._cache(
            "distinct_ballots", lambda: tuple(map(_read_only, distinct_rows(self._mat)))
        )

    def _cache(self, key, factory):
        # memo for derived artifacts (approval counts, ballot lengths,
        # distinct ballots, Hamming factors, spectral bases, the local
        # agreement means, clustered agreement terms);
        # lives and dies with the election, so no cross-election eviction
        try:
            return self._memo[key]
        except KeyError:
            value = factory()
            self._memo[key] = value
            return value

    def clear_cache(self) -> None:
        """Drop the memoised derived artifacts (those listed at :meth:`_cache`);
        later calls recompute them."""
        self._memo.clear()

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        n, m = self._mat.shape
        return f"<Election{tag} m={m} n={n} satr={stats(self).satr:.3f}>"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ElectionStats:
    """Average vote length, its complement, and the saturation ``avl/m``."""

    avl: float
    rev_avl: float
    satr: float


def distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, inverse, counts)`` of a 0/1 matrix's distinct rows, as
    ``np.unique(matrix, axis=0, return_inverse=True, return_counts=True)``
    gives them.

    Each row is packed into bytes, most significant bit first, and the
    packed rows are compared as opaque byte strings.  Every row carries the
    same zero padding, so byte order is the rows' lexicographic order, and
    the rows, their order, the inverse and the counts are those of the
    row-wise ``np.unique`` without its sort over ``m`` fields.
    """
    packed = np.packbits(matrix, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return matrix[first], inverse, counts


def stats(e: Election) -> ElectionStats:
    """Scalar statistics of an election; satisfies ``avl + rev_avl == m``."""
    m, n = e.num_candidates, e.num_voters
    total = e.total_approvals()
    avl = total / n
    return ElectionStats(avl=avl, rev_avl=(n * m - total) / n, satr=total / (n * m))


def subsample(e: Election, max_candidates: int, max_voters: int, seed: int) -> Election:
    """Cap the election size by uniform sampling without replacement.

    Voters (if ``n > max_voters``) and candidates (if ``m > max_candidates``)
    are sampled independently, each by one sorted draw from its own seeded
    stream, so relative order is kept; the kept rows and columns make one
    new election.  Elections already within the caps are returned unchanged.
    """
    if max_candidates < 1 or max_voters < 1:
        raise ValueError("size caps must be positive")
    n, m = e.num_voters, e.num_candidates
    if n <= max_voters and m <= max_candidates:
        return e
    stream = seeded_streams(seed)

    def keep(size: int, cap: int, substream: int):
        if size <= cap:
            return slice(None)
        return np.sort(stream(substream).choice(size, size=cap, replace=False))

    rows, cols = keep(n, max_voters, 0xF0), keep(m, max_candidates, 0xC0)
    # a column cut can come out in Fortran order
    return Election._owning(np.ascontiguousarray(e.matrix[rows][:, cols]), label=e.label)
