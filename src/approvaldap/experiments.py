"""Experiment protocols: resampling grids, index tables, and the map of elections.

The map places each election at its (agreement, diversity, polarization)
feature vector, measures pairwise Euclidean feature distances, and embeds
the distance matrix in the plane with stress-majorization MDS.  All
protocols run their items as a plain loop, each item under a seed derived
from the experiment seed, so results follow from the seed alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ._solvers import eigh
from .agreement import AGREEMENT_INDICES
from .core import Election, seeded_streams, stats, subsample
from .divpol import cntr_div, cntr_pol, out_div, pair_pol, pcc_div, pcc_pol
from .generators import CultureSpec, sample
from .io import write_csv_matrix

__all__ = [
    "INDEX_NAMES",
    "evaluate_index",
    "ResamplingMatrix",
    "Embedding",
    "IndexTable",
    "MapEntry",
    "MapResult",
    "resampling_experiment",
    "index_table",
    "feature_vector",
    "mds_embed",
    "complementarity",
    "correlations",
    "synthetic_map_entries",
    "map_of_elections",
]

SUBSAMPLE_CANDIDATES = 200
SUBSAMPLE_VOTERS = 1000

_SMACOF_MAX_ITER = 300
_SMACOF_TOL = 1e-9

_INDEX_FUNCS: dict[str, Callable[[Election, int], float]] = {
    "satr": lambda e, seed: stats(e).satr,
    **{name: (lambda fn: lambda e, seed: fn(e))(fn) for name, fn in AGREEMENT_INDICES.items()},
    "cntr_div": cntr_div,
    "pcc_div": pcc_div,
    "out_div": out_div,
    "cntr_pol": cntr_pol,
    "pcc_pol": pcc_pol,
    "pair_pol": lambda e, seed: pair_pol(e),
}

# index names in table and CSV column order
INDEX_NAMES = tuple(_INDEX_FUNCS)

# the (agreement, diversity, polarization) indices that place an election on the map
FEATURE_TRIPLE = ("pcc_agr", "pcc_div", "pcc_pol")


def evaluate_index(name: str, e: Election, seed: int = 0) -> float:
    """Evaluate a named index (clustering/sampling indices use the seed)."""
    try:
        fn = _INDEX_FUNCS[name]
    except KeyError:
        raise ValueError(f"unknown index {name!r}; available: {', '.join(INDEX_NAMES)}") from None
    return fn(e, seed)


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit seed for a sub-task of a seeded experiment."""
    text = ":".join([str(seed), *map(str, parts)])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# -- resampling experiment ----------------------------------------------

P_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
PHI_GRID = tuple(round(0.1 * j, 1) for j in range(0, 11))


@dataclass(frozen=True)
class ResamplingMatrix:
    """Mean index values over seeded resampling elections on a (p, phi) grid."""

    index: str
    p_values: tuple
    phi_values: tuple
    values: np.ndarray
    samples_per_cell: int

    def column_spread(self) -> np.ndarray:
        """Per-column max-min over the saturation parameter p."""
        return self.values.max(axis=0) - self.values.min(axis=0)

    def to_csv(self) -> str:
        headers = ["p\\phi", *[f"phi={phi:g}" for phi in self.phi_values]]
        rows = [[f"p={p:g}", *row] for p, row in zip(self.p_values, self.values)]
        return write_csv_matrix(rows, headers)


def resampling_experiment(
    index: str,
    m: int = 60,
    n: int = 60,
    samples: int = 10,
    seed: int = 0,
) -> ResamplingMatrix:
    """Mean of an index over seeded resampling elections for each grid cell.

    Rows fix the expected saturation ``p`` and columns fix the resampling
    noise ``phi``; an index whose columns are far from constant depends on
    saturation rather than on election structure.
    """
    if samples < 1:
        raise ValueError("need at least one sample per cell")
    if index not in INDEX_NAMES:
        raise ValueError(f"unknown index {index!r}")

    values = np.empty((len(P_GRID), len(PHI_GRID)))
    for i, p in enumerate(P_GRID):
        for j, phi in enumerate(PHI_GRID):
            total = 0.0
            for t in range(samples):
                cell_seed = derive_seed(seed, "resampling", i, j, t)
                spec = CultureSpec("resampling", m, n, seed=cell_seed, params={"p": p, "phi": phi})
                total += evaluate_index(index, sample(spec), cell_seed)
            values[i, j] = total / samples
    values.setflags(write=False)
    return ResamplingMatrix(
        index=index,
        p_values=P_GRID,
        phi_values=PHI_GRID,
        values=values,
        samples_per_cell=samples,
    )


# -- index table ---------------------------------------------------------


@dataclass(frozen=True)
class IndexTable:
    """Per-culture mean and standard deviation of every index."""

    labels: tuple
    indices: tuple
    means: np.ndarray
    stds: np.ndarray

    def row(self, label: str) -> dict:
        i = self.labels.index(label)
        return {
            name: (float(self.means[i, j]), float(self.stds[i, j]))
            for j, name in enumerate(self.indices)
        }

    def to_csv(self) -> str:
        headers = ["label"]
        for name in self.indices:
            headers += [f"{name}_mean", f"{name}_std"]
        rows = []
        for i, label in enumerate(self.labels):
            row = [label]
            for j in range(len(self.indices)):
                row += [self.means[i, j], self.stds[i, j]]
            rows.append(row)
        return write_csv_matrix(rows, headers)


def index_table(
    specs: Sequence[CultureSpec],
    samples: int = 10,
    seed: int = 0,
    indices: Sequence[str] = INDEX_NAMES,
) -> IndexTable:
    """Sample each culture and tabulate mean/std of the selected indices.

    Each spec is drawn ``samples`` times under seeds derived from the
    experiment seed (overriding the spec's own seed field), so a table is
    reproducible from ``(specs, samples, seed)`` alone.  Standard
    deviations are population standard deviations over the sampled
    elections; deterministic cultures yield identical elections, but
    clustering-backed indices still vary with the per-sample seeds.
    """
    if samples < 1:
        raise ValueError("need at least one sample per culture")
    for name in indices:
        if name not in INDEX_NAMES:
            raise ValueError(f"unknown index {name!r}")

    cube = np.empty((len(specs), samples, len(indices)))
    for r, spec in enumerate(specs):
        for t in range(samples):
            run_seed = derive_seed(seed, "table", r, t)
            e = sample(spec.with_seed(run_seed))
            cube[r, t] = [evaluate_index(name, e, run_seed) for name in indices]
    stds = cube.std(axis=1)
    stds[stds < 1e-12] = 0.0  # identical samples should report exactly zero spread
    return IndexTable(
        labels=tuple(s.display_label() for s in specs),
        indices=tuple(indices),
        means=cube.mean(axis=1),
        stds=stds,
    )


# -- features and the map -------------------------------------------------


def feature_vector(e: Election, seed: int = 0) -> np.ndarray:
    """Subsample oversized elections, then evaluate :data:`FEATURE_TRIPLE`:
    the float64 (agreement, diversity, polarization) triple of the map."""
    sub = subsample(e, SUBSAMPLE_CANDIDATES, SUBSAMPLE_VOTERS, seed)
    values = [evaluate_index(name, sub, seed) for name in FEATURE_TRIPLE]
    return np.array(values, dtype=np.float64)


@dataclass(frozen=True)
class Embedding:
    """Planar MDS embedding plus its quality report.

    ``distortion`` is the mean over point pairs of
    ``max(d_emb/d_true, d_true/d_emb)``; 1 is a perfect embedding.
    """

    points: np.ndarray
    distortion: float
    stress: float
    stress_path: tuple = field(repr=False, default=())


def mds_embed(distances: np.ndarray) -> Embedding:
    """Embed a distance matrix in 2-D by SMACOF stress majorization.

    Starts from the classical-MDS configuration (double-centered
    eigendecomposition) and iterates Guttman transforms until the metric
    stress decreases by less than ``_SMACOF_TOL`` (at most
    ``_SMACOF_MAX_ITER`` rounds).
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    n = d.shape[0]
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    if not np.allclose(d, d.T, rtol=0.0, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if (d < 0).any():
        raise ValueError("distances must be nonnegative")
    if not np.allclose(np.diag(d), 0.0, atol=1e-12):
        raise ValueError("distance matrix must have a zero diagonal")
    if n == 1:
        return Embedding(points=np.zeros((1, 2)), distortion=1.0, stress=0.0)

    x = _classical_init(d)
    path = []
    prev = math.inf
    for _ in range(_SMACOF_MAX_ITER):
        edist = _pairwise(x)
        stress = float((np.triu(edist - d, 1) ** 2).sum())
        path.append(stress)
        if prev - stress < _SMACOF_TOL:
            break
        prev = stress
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(edist > 0, d / edist, 0.0)
        np.fill_diagonal(ratio, 0.0)
        guttman = -ratio
        np.fill_diagonal(guttman, ratio.sum(axis=1))
        x = guttman @ x / n

    edist = _pairwise(x)
    stress = float((np.triu(edist - d, 1) ** 2).sum())
    path.append(stress)
    iu = np.triu_indices(n, 1)
    true_d, emb_d = d[iu], edist[iu]
    mask = true_d > 1e-9
    if mask.any():
        with np.errstate(divide="ignore"):
            ratios = np.maximum(emb_d[mask] / true_d[mask], true_d[mask] / emb_d[mask])
        distortion = float(ratios.mean())
    else:
        distortion = 1.0
    return Embedding(points=x, distortion=distortion, stress=stress, stress_path=tuple(path))


def _classical_init(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    center = np.eye(n) - 1.0 / n
    b = -0.5 * center @ (d**2) @ center
    vals, vecs = eigh(b)
    top = np.clip(vals[-2:][::-1], 0.0, None)
    return vecs[:, -2:][:, ::-1] * np.sqrt(top)


def _pairwise(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


# -- complementarity and correlations --------------------------------------


def complementarity(x, y, z) -> float:
    """One minus the std of the summed triple over the summed stds.

    1 means the three index columns sum to a constant (they partition a
    fixed budget); identical columns give 0.  Population standard
    deviations throughout.
    """
    ax, ay, az = (np.asarray(v, dtype=np.float64) for v in (x, y, z))
    if not ax.shape == ay.shape == az.shape or ax.ndim != 1:
        raise ValueError("need three equal-length vectors")
    if ax.size < 2:
        raise ValueError("need at least two observations")
    denom = ax.std() + ay.std() + az.std()
    if denom == 0.0:
        raise ValueError("complementarity undefined for three constant vectors")
    return 1.0 - (ax + ay + az).std() / denom


def correlations(table) -> tuple[np.ndarray, np.ndarray]:
    """Pearson rho and Kendall tau-b matrices over index columns.

    Coefficients involving a constant column are undefined and recorded
    as NaN.
    """
    import scipy.stats  # slow to import, and only this function uses it

    data = np.asarray(table, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a 2-D table with at least two elections")
    k = data.shape[1]
    stds = data.std(axis=0)
    rho = np.full((k, k), np.nan)
    tau = np.full((k, k), np.nan)
    centered = data - data.mean(axis=0)
    for i in range(k):
        if stds[i] == 0:
            continue
        rho[i, i] = tau[i, i] = 1.0
        for j in range(i + 1, k):
            if stds[j] == 0:
                continue
            r = float((centered[:, i] * centered[:, j]).mean() / (stds[i] * stds[j]))
            t = float(scipy.stats.kendalltau(data[:, i], data[:, j]).statistic)
            rho[i, j] = rho[j, i] = r
            tau[i, j] = tau[j, i] = t
    return rho, tau


# -- synthetic map corpus ---------------------------------------------------


@dataclass(frozen=True)
class MapEntry:
    """One map item: a culture spec plus the legend group it belongs to."""

    group: str
    spec: CultureSpec

    def to_dict(self) -> dict:
        return {"group": self.group, "spec": self.spec.to_dict()}

    @classmethod
    def from_dict(cls, data) -> "MapEntry":
        spec = CultureSpec.from_dict(data["spec"])
        return cls(group=data.get("group", spec.family), spec=spec)


# the seed and sample count of ``table --compass``
COMPASS_SEED = 42
COMPASS_SAMPLES = 10


def compass_specs(m: int = 60, n: int = 60) -> list[CultureSpec]:
    """The fourteen reference cultures spanning the agreement/diversity/
    polarization extremes, at the standard 60x60 size."""
    two_party = CultureSpec(family="k_party", m=m, n=n, params={"k": 2}, label="2-Party")
    triangle = CultureSpec(family="triangle", m=m, n=n, label="Triangle")
    return [
        CultureSpec(family="p_id", m=m, n=n, params={"p": 1 / 3}, label="1/3-ID"),
        two_party,
        CultureSpec(
            family="noisy", m=m, n=n, params={"phi": 0.6, "base": two_party}, label="N(2-Party,0.6)"
        ),
        CultureSpec(family="k_party", m=m, n=n, params={"k": 3}, label="3-Party"),
        CultureSpec(family="k_party", m=m, n=n, params={"k": 4}, label="4-Party"),
        CultureSpec(
            family="xy_two_party", m=m, n=n, params={"x": 1 / 3, "y": 1 / 3}, label="(1/3,1/3)-2-Party"
        ),
        CultureSpec(family="cyclic", m=m, n=n, label="Cyclic"),
        CultureSpec(family="diagonal", m=m, n=n, label="Diagonal"),
        triangle,
        CultureSpec(
            family="noisy", m=m, n=n, params={"phi": 0.6, "base": triangle}, label="N(Triangle,0.6)"
        ),
        CultureSpec(family="id_ic", m=m, n=n, params={"p": 0.5}, label="1/2-ID/IC"),
        CultureSpec(family="p_ic", m=m, n=n, params={"p": 0.5}, label="1/2-IC"),
        CultureSpec(family="p_ic", m=m, n=n, params={"p": 0.25}, label="1/4-IC"),
        CultureSpec(family="lin_ic", m=m, n=n, label="Lin-IC"),
    ]


# the seed of ``map --synthetic``: it draws the corpus parameters and seeds the map
SYNTHETIC_MAP_SEED = 20260809


def synthetic_map_entries(seed: int = 0) -> list[MapEntry]:
    """The synthetic map corpus (244 elections) of ``map --synthetic``.

    Compass cultures at 60x60 plus impartial-culture, Lin-IC, resampling,
    noisy-2-party, unbalanced-2-party, party-list, mixture, and planar
    Euclidean families at their standard sizes.  Randomized family
    parameters are drawn here so the corpus is fully declarative.
    """
    rng = seeded_streams(derive_seed(seed, "synthetic-map"))(0)
    entries = [MapEntry("compass", spec) for spec in compass_specs()]

    def add(group: str, spec: CultureSpec):
        entries.append(MapEntry(group, spec.with_seed(derive_seed(seed, group, len(entries)))))

    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for copy in range(2):
            add("IC", CultureSpec(family="p_ic", m=100, n=1000, params={"p": p}, label=f"{p}-IC"))
    for _ in range(5):
        add("Lin-IC", CultureSpec(family="lin_ic", m=100, n=1000, label="Lin-IC"))
    for _ in range(50):
        p, phi = (float(v) for v in rng.random(2).round(6))
        add(
            "Resampling",
            CultureSpec(family="resampling", m=100, n=1000, params={"p": p, "phi": phi}),
        )
    two_party_100 = CultureSpec(family="k_party", m=100, n=100, params={"k": 2})
    for _ in range(25):
        phi = round(float(rng.random()), 6)
        add(
            "N(2-Party)",
            CultureSpec(family="noisy", m=100, n=100, params={"phi": phi, "base": two_party_100}),
        )
    for _ in range(25):
        x, y = (float(v) for v in rng.random(2).round(6))
        add(
            "(x,y)-2-Party",
            CultureSpec(family="xy_two_party", m=100, n=100, params={"x": x, "y": y}),
        )
    for _ in range(25):
        add("Party-list", CultureSpec(family="uneven_party_list", m=100, n=100))
    for k in (2, 3, 4, 5):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            add("ID-Mixture", CultureSpec(family="id_mixture", m=100, n=1000, params={"k": k, "p": p}))
    for k in (2, 3, 4, 5):
        for _ in range(5):
            add("IAM-Mixture", CultureSpec(family="iam_mixture", m=100, n=1000, params={"k": k}))
    for variant in (1, 2, 3, 4, 5):
        for _ in range(10):
            add(
                "2D-Euclidean",
                CultureSpec(family="euclidean", m=100, n=1000, params={"variant": variant}),
            )
    return entries


@dataclass(frozen=True)
class MapResult:
    """Everything the map command emits: features, distances, embedding."""

    labels: tuple
    groups: tuple
    features: np.ndarray
    distances: np.ndarray
    embedding: Embedding

    def feature_csv(self) -> str:
        rows = [
            [label, group, *feat]
            for label, group, feat in zip(self.labels, self.groups, self.features)
        ]
        return write_csv_matrix(rows, ["label", "group", "agr", "div", "pol"])

    def distance_csv(self) -> str:
        rows = [[label, *row] for label, row in zip(self.labels, self.distances)]
        return write_csv_matrix(rows, ["label", *self.labels])

    def embedding_csv(self) -> str:
        rows = [
            [label, group, x, y]
            for label, group, (x, y) in zip(self.labels, self.groups, self.embedding.points)
        ]
        return write_csv_matrix(rows, ["label", "group", "x", "y"])


def map_of_elections(items: Iterable[tuple[str, str, Election]], seed: int = 0) -> MapResult:
    """Compute feature vectors for ``(label, group, election)`` items and
    embed their pairwise feature distances."""
    items = list(items)
    if len(items) < 2:
        raise ValueError("a map needs at least two elections")

    features = np.empty((len(items), 3))
    for idx, (_, _, e) in enumerate(items):
        features[idx] = feature_vector(e, derive_seed(seed, "map", idx))
        e.clear_cache()  # its spectral system is not needed past this point
    # exactly symmetric with a zero diagonal: (a - b)^2 is (b - a)^2, a - a is 0
    distances = _pairwise(features)
    embedding = mds_embed(distances)
    return MapResult(
        labels=tuple(label for label, _, _ in items),
        groups=tuple(group for _, group, _ in items),
        features=features,
        distances=distances,
        embedding=embedding,
    )
