"""Slow reference forms of library indices and samplers, kept as test oracles."""

import math
from itertools import repeat
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import linear_sum_assignment

from approvaldap import divpol
from approvaldap.core import _KEY_MASK, Election, distinct_rows
from approvaldap.generators import (
    _ELECTION_STREAM,
    _check_prob,
    _check_sizes,
    _id_prefix,
    _master,
)
from approvaldap.io import ParseError
from approvaldap.metrics import cross_hamming


# -- one new Generator per stream and one Election per cut, before the
# library re-keyed one bit generator (core.seeded_streams) and cut each
# subsample in one step --------------------------------------------------


def seeded_rng(seed: int, substream: int = 0) -> Generator:
    """A new ``Generator`` on the Philox stream keyed by ``(seed, substream)``:
    the reference for ``core.seeded_streams`` and ``core.stream_uniforms``."""
    key = np.array([seed & _KEY_MASK, substream & _KEY_MASK], dtype=np.uint64)
    return Generator(Philox(key=key))


def restrict_voters(e: Election, indices: Sequence[int]) -> Election:
    """Sub-election on the given voters (order preserved, duplicates allowed)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("sub-election needs at least one voter")
    return Election(e.matrix[idx], label=e.label)


def restrict_candidates(e: Election, indices: Sequence[int]) -> Election:
    """Sub-election on the given candidates (order preserved)."""
    idx = list(indices)
    if not idx:
        raise ValueError("sub-election needs at least one candidate")
    return Election(e.matrix[:, idx], label=e.label)


# -- per-pair measures: the definitions behind the library's array forms
# (cross_hamming, pcc_matrix, metrics._jaccard_similarity) ----------------


def _ballot_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(u, dtype=np.int64).ravel()
    b = np.asarray(v, dtype=np.int64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"ballot lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def hamming(u, v) -> int:
    """Number of positions on which two equal-length ballots differ."""
    a, b = _ballot_pair(u, v)
    return int(np.abs(a - b).sum())


def jaccard(u, v) -> float:
    """Jaccard distance of the approval sets, in [0, 1].

    Two empty ballots are identical, so the 0/0 case is defined as 0.
    """
    a, b = _ballot_pair(u, v)
    union = int((a | b).sum())
    if union == 0:
        return 0.0
    return 1.0 - int((a & b).sum()) / union


def pcc(u, v) -> float:
    """Pearson correlation of two binary ballots, in [-1, 1].

    Computed from the intersection size and the two lengths.  If either
    ballot is constant (all zeros or all ones) the usual formula
    degenerates to 0/0 and the value is fixed to 1.
    """
    a, b = _ballot_pair(u, v)
    m, n11, la, lb = a.size, int((a & b).sum()), int(a.sum()), int(b.sum())
    if la in (0, m) or lb in (0, m):
        return 1.0
    # single sqrt of the integer product is exact for identical ballots
    return (m * n11 - la * lb) / math.sqrt(la * (m - la) * lb * (m - lb))


# -- n x n kernels over the voters, before the local agreement indices
# summed over weighted distinct ballots in row blocks -------------------


def intersection_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` int64 matrix of pairwise approval-set intersection sizes."""
    x = e.matrix.astype(np.int64)
    return x @ x.T


def hamming_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` matrix of pairwise Hamming distances."""
    lengths = e.ballot_lengths()
    return lengths[:, None] + lengths[None, :] - 2 * intersection_matrix(e)


def jaccard_similarity_matrix(e: Election) -> np.ndarray:
    """``(n, n)`` matrix of ``1 - jaccard(u, v)`` (empty-vs-empty pairs score 1)."""
    n11 = intersection_matrix(e)
    lengths = e.ballot_lengths()
    union = lengths[:, None] + lengths[None, :] - n11
    sim = np.ones((e.num_voters, e.num_voters), dtype=np.float64)
    return np.divide(n11, union, out=sim, where=union > 0)


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


# -- clustered agreement over one sub-election per cluster, before
# cntr_agr and pcc_agr took cluster labels ------------------------------


def cluster_agreement_oracle(e: Election, labels, agr) -> float:
    """Cluster-size-weighted mean of ``agr`` over the clusters of ``labels``
    (one id per voter): each cluster's voters become a sub-election through
    ``restrict_voters``, scored by the whole-election ``agr``, in ascending
    id order."""
    labels = np.asarray(labels)
    n = e.num_voters
    total = 0.0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        total += (members.size / n) * agr(restrict_voters(e, members))
    return total


# -- outer diversity against the full weighted universe of 2^m ballots,
# before out_div kept only the sampled estimator ------------------------


def exact_ham_to_universe(e: Election) -> float:
    """``divpol.ham_to_universe`` with the whole saturation-weighted universe
    of ``2^m`` ballots in place of the seeded draws (small ``m`` only); the
    fractional matching is solved by the library's transportation LP."""
    n, m = e.num_voters, e.num_candidates
    total = e.total_approvals()
    if total in (0, n * m):
        return 0.0
    p = total / (n * m)
    ballots, _, counts = e.distinct_ballots()
    codes = np.arange(2**m, dtype=np.int64)
    universe = ((codes[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    ones = universe.sum(axis=1)
    weights = p**ones * (1.0 - p) ** (m - ones)
    supply = counts / n
    demand = weights * (supply.sum() / weights.sum())
    cost = cross_hamming(ballots, universe)
    return divpol._transport(cost, supply, demand) / m


def exact_out_div(e: Election) -> float:
    """``divpol.out_div`` normalised from :func:`exact_ham_to_universe`."""
    n, m = e.num_voters, e.num_candidates
    total = e.total_approvals()
    if total in (0, n * m):
        return 0.0
    p = total / (n * m)
    return min(1.0, max(0.0, 1.0 - exact_ham_to_universe(e) / (2.0 * p * (1.0 - p))))


# -- the sampled outer-diversity matching with the repeated ballots as rows,
# before the draws became the rows ----------------------------------------


def assignment_ham_to_universe(e: Election, seed: int) -> float:
    """Sampled ``divpol.ham_to_universe`` solved as the assignment whose
    square cost has the repeated ballots as rows and the repeated draws as
    columns, expanded by one 2-D fancy index."""
    n, m = e.num_voters, e.num_candidates
    p = e.total_approvals() / (n * m)
    k = divpol._SAMPLES_PER_VOTER
    rng = seeded_rng(seed, divpol._SAMPLE_STREAM)
    samples = (rng.random((k * n, m)) < p).astype(np.uint8)
    ballots, _, counts = e.distinct_ballots()
    sample_ballots, _, sample_counts = distinct_rows(samples)
    cost = cross_hamming(ballots, sample_ballots)
    rows = np.repeat(np.arange(len(ballots)), counts * k)
    cols = np.repeat(np.arange(len(sample_ballots)), sample_counts)
    cost = cost[rows[:, None], cols[None, :]]
    r, c = linear_sum_assignment(cost)
    return int(cost[r, c].sum()) / (k * n * m)


# -- samplers drawn with one Generator per voter, before the library read
# every voter's stream through one re-keyed bit generator --------------


def _voter_rng(master: int, voter: int):
    return seeded_rng(master, voter)


def _election_rng(master: int, slot: int = 0):
    return seeded_rng(master, _ELECTION_STREAM + slot)


def gen_cyclic(m: int) -> Election:
    """First ballot approves candidate 1 and the last ``floor(m/2) - 1``
    candidates; each next ballot is the previous shifted cyclically right."""
    _check_sizes(m, m)
    first = np.zeros(m, dtype=np.uint8)
    first[0] = 1
    tail = max(m // 2 - 1, 0)
    if tail:
        first[m - tail :] = 1
    mat = np.stack([np.roll(first, i) for i in range(m)])
    return Election(mat)


def gen_p_ic(m: int, n: int, p: float, seed: int) -> Election:
    """Impartial culture: every entry approved independently with probability ``p``."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    master = _master("p_ic", seed)
    rows = [(_voter_rng(master, i).random(m) < p) for i in range(n)]
    return Election(np.array(rows, dtype=np.uint8))


def gen_iam(m: int, n: int, probs: Sequence[float], seed: int) -> Election:
    """Independent approvals with a per-candidate probability vector."""
    _check_sizes(m, n)
    pvec = np.asarray(probs, dtype=np.float64)
    if pvec.shape != (m,):
        raise ValueError(f"need {m} per-candidate probabilities, got shape {pvec.shape}")
    if pvec.min() < 0.0 or pvec.max() > 1.0:
        raise ValueError("per-candidate probabilities must lie in [0, 1]")
    master = _master("iam", seed)
    rows = [(_voter_rng(master, i).random(m) < pvec) for i in range(n)]
    return Election(np.array(rows, dtype=np.uint8))


def _resample_row(rng, central: np.ndarray, p: float, phi: float) -> np.ndarray:
    resampled = rng.random(central.size) < phi
    fresh = rng.random(central.size) < p
    return np.where(resampled, fresh, central.astype(bool))


def gen_resampling(m: int, n: int, p: float, phi: float, seed: int) -> Election:
    """Each entry copies the central identity ballot with probability
    ``1 - phi`` and is otherwise redrawn with approval probability ``p``."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    _check_prob(phi, "phi")
    central = _id_prefix(m, p)
    master = _master("resampling", seed)
    rows = [_resample_row(_voter_rng(master, i), central, p, phi) for i in range(n)]
    return Election(np.array(rows, dtype=np.uint8))


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
    rng = _election_rng(_master("euclidean", seed))
    cand_pts = rng.random((m, 2))
    voter_pts = rng.random((n, 2))
    dist = np.linalg.norm(voter_pts[:, None, :] - cand_pts[None, :, :], axis=2)
    if variant in (1, 2):
        radius = 0.117 if variant == 1 else 0.167
        mat = dist < radius
    elif variant == 3:
        radii = rng.random(n) * 0.5
        mat = dist < radii[:, None]
    else:
        counts = np.full(n, min(10, m)) if variant == 4 else rng.integers(1, m + 1, size=n)
        order = np.argsort(dist, axis=1, kind="stable")
        mat = np.zeros((n, m), dtype=np.uint8)
        for i in range(n):
            mat[i, order[i, : counts[i]]] = 1
    return Election(np.asarray(mat, dtype=np.uint8))


def gen_id_ic(m: int, n: int, p: float, seed: int) -> Election:
    """First half of the voters share the ``p``-identity ballot, the rest
    are impartial culture with the same ``p``."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    n_id = n // 2
    central = _id_prefix(m, p)
    master = _master("id_ic", seed)
    rows = [central] * n_id
    rows += [(_voter_rng(master, i).random(m) < p).astype(np.uint8) for i in range(n_id, n)]
    return Election(np.array(rows, dtype=np.uint8))


def gen_lin_ic(m: int, n: int, seed: int) -> Election:
    """Impartial culture with approval probability sliding from 1 down to ``1/n``."""
    _check_sizes(m, n)
    master = _master("lin_ic", seed)
    rows = [(_voter_rng(master, i).random(m) < (1.0 - i / n)) for i in range(n)]
    return Election(np.array(rows, dtype=np.uint8))


def gen_noisy(base: Election, phi: float, seed: int) -> Election:
    """Resample each ballot of ``base`` around itself: entries are kept
    with probability ``1 - phi`` and otherwise redrawn with that ballot's
    own approval fraction."""
    _check_prob(phi, "phi")
    m = base.num_candidates
    master = _master("noisy", seed)
    lengths = base.ballot_lengths()
    mat = base.matrix
    rows = [
        _resample_row(_voter_rng(master, i), mat[i], lengths[i] / m, phi)
        for i in range(base.num_voters)
    ]
    return Election(np.array(rows, dtype=np.uint8), label=base.label)


def gen_id_mixture(m: int, n: int, k: int, p: float, seed: int) -> Election:
    """Voters split uniformly into ``k`` groups; each group shares one
    ballot drawn from ``p``-impartial culture."""
    _check_sizes(m, n)
    _check_prob(p, "p")
    if k < 1:
        raise ValueError("group count must be positive")
    master = _master("id_mixture", seed)
    groups = _election_rng(master).integers(0, k, size=n)
    ballots = {g: (_election_rng(master, 1 + g).random(m) < p).astype(np.uint8) for g in range(k)}
    return Election(np.array([ballots[g] for g in groups], dtype=np.uint8))


def gen_iam_mixture(m: int, n: int, k: int, seed: int) -> Election:
    """Voters split uniformly into ``k`` groups; each group draws its own
    per-candidate probabilities uniformly and votes independently."""
    _check_sizes(m, n)
    if k < 1:
        raise ValueError("group count must be positive")
    master = _master("iam_mixture", seed)
    groups = _election_rng(master).integers(0, k, size=n)
    probs = {g: _election_rng(master, 1 + g).random(m) for g in range(k)}
    rows = [(_voter_rng(master, i).random(m) < probs[groups[i]]) for i in range(n)]
    return Election(np.array(rows, dtype=np.uint8))


# -- the line-by-line Pabulib parser, before the VOTES rows were read as arrays --

_PABULIB_SECTIONS = ("META", "PROJECTS", "VOTES")


def parse_pabulib_lines(text: str) -> Election:
    """Parse a Pabulib ``.pb`` file into an election.

    Candidates are the declared projects in file order; each VOTES row
    becomes one ballot approving the project ids in its ``vote`` field
    (duplicates collapsed, empty field allowed).  Costs and all metadata
    are ignored, except that files declaring a non-approval ``vote_type``
    are rejected.  Sections may appear in any order; trailing whitespace
    is insignificant.

    The rows are read and checked line by line; the vote tokens of all
    rows are then split and mapped to project indices in one pass, and the
    ballot matrix is filled by one assignment.  An undeclared project id
    is reported with the line of the first row that names one.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    text = text.lstrip("﻿")

    meta: dict[str, str] = {}
    project_order: list[str] = []
    project_seen: set[str] = set()
    votes: list[str] = []
    vote_lines: list[int] = []
    seen_sections: set[str] = set()

    section = None
    header: list[str] = []
    vote_col = -1
    id_col = -1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line in _PABULIB_SECTIONS:
            if line in seen_sections:
                raise ParseError(f"duplicate section {line}", lineno)
            seen_sections.add(line)
            section = line
            header = []
            continue
        if line.isupper() and line.isalpha():
            raise ParseError(f"unknown section {line!r}", lineno)
        if section is None:
            raise ParseError("content before any section header", lineno)

        fields = line.split(";")
        if not header:
            header = [f.strip() for f in fields]
            if section == "PROJECTS":
                try:
                    id_col = header.index("project_id")
                except ValueError:
                    raise ParseError("PROJECTS header lacks a project_id column", lineno) from None
            elif section == "VOTES":
                try:
                    vote_col = header.index("vote")
                except ValueError:
                    raise ParseError("VOTES header lacks a vote column", lineno) from None
            continue

        if section == "META":
            if len(fields) < 2:
                raise ParseError("META row needs key;value", lineno)
            meta[fields[0].strip()] = fields[1].strip()
        elif section == "PROJECTS":
            if len(fields) != len(header):
                raise ParseError(
                    f"PROJECTS row has {len(fields)} fields, header has {len(header)}", lineno
                )
            pid = fields[id_col].strip()
            if not pid:
                raise ParseError("empty project id", lineno)
            if pid in project_seen:
                raise ParseError(f"duplicate project id {pid!r}", lineno)
            project_seen.add(pid)
            project_order.append(pid)
        elif section == "VOTES":
            if len(fields) != len(header):
                raise ParseError(
                    f"VOTES row has {len(fields)} fields, header has {len(header)}", lineno
                )
            votes.append(fields[vote_col].strip())
            vote_lines.append(lineno)

    vote_type = meta.get("vote_type", "approval").strip().lower()
    if vote_type != "approval":
        raise ParseError(f"only approval ballots are supported, file declares {vote_type!r}")
    if "VOTES" not in seen_sections:
        raise ParseError("missing VOTES section")
    if not project_order:
        raise ParseError("no projects declared")
    if not votes:
        raise ParseError("VOTES section has no ballots")

    # one pass over every token of every vote: "" (from "1,,2") maps to -1
    # and is skipped, an undeclared id maps to -2
    lookup = {pid: j for j, pid in enumerate(project_order)}
    lookup[""] = -1
    sizes = [vote.count(",") + 1 if vote else 0 for vote in votes]
    joined = ",".join(vote for vote in votes if vote)
    tokens = joined.split(",") if joined else []
    cols = np.fromiter(
        map(lookup.get, map(str.strip, tokens), repeat(-2)), dtype=np.int64, count=len(tokens)
    )
    rows = np.repeat(np.arange(len(votes)), sizes)
    undeclared = np.flatnonzero(cols == -2)
    if undeclared.size:
        first = undeclared[0]
        raise ParseError(
            f"vote references undeclared project {tokens[first].strip()!r}",
            vote_lines[rows[first]],
        )
    approved = cols >= 0
    mat = np.zeros((len(votes), len(project_order)), dtype=np.uint8)
    mat[rows[approved], cols[approved]] = 1  # repeated ids collapse
    label = meta.get("description") or meta.get("unit")
    return Election(mat, label=label)


# -- core.subsample before voters were cut first ----------------------------


def subsample_candidates_first(e: Election, max_candidates: int, max_voters: int, seed: int):
    """``core.subsample`` cutting the candidates of every voter first, then the
    voters, from the same two seeded streams."""
    out = e
    if e.num_candidates > max_candidates:
        rng = seeded_rng(seed, 0xC0)
        keep = np.sort(rng.choice(e.num_candidates, size=max_candidates, replace=False))
        out = restrict_candidates(out, keep)
    if e.num_voters > max_voters:
        rng = seeded_rng(seed, 0xF0)
        keep = np.sort(rng.choice(e.num_voters, size=max_voters, replace=False))
        out = restrict_voters(out, keep)
    return out
