"""Output checks for the benchmark workloads, independent of the program's kernels.

Index values are recomputed here from the dense 0/1 ballot matrix with
plain numpy, straight from the definitions the package documents, and
outer diversity is re-solved as an assignment problem with
``scipy.optimize.linear_sum_assignment``.  Only the inputs (sampled
elections, derived seeds, subsamples) come from the program.

Each check returns a ``Verdict``: the indices of the elections whose
output is wrong or missing, plus one message per problem.  The CSVs carry
6 significant digits, so values are compared at that precision.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

INDEX_NAMES = (
    "satr", "av_agr", "cntr_agr", "pair_agr", "pcc_agr", "jacc_agr", "pccplus_agr",
    "cntr_div", "pcc_div", "out_div", "cntr_pol", "pcc_pol", "pair_pol",
)
AGREEMENT = ("av_agr", "cntr_agr", "pair_agr", "pcc_agr", "jacc_agr", "pccplus_agr")
DIV_POL = ("cntr_div", "pcc_div", "cntr_pol", "pcc_pol", "pair_pol")
# outer diversity draws 5 reference ballots per voter from this Philox substream
_OUT_DIV_MULTIPLIER = 5
_OUT_DIV_STREAM = 0x0D1F


@dataclass
class Verdict:
    failed: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    def fail(self, items, message: str) -> None:
        self.failed.update(items)
        self.errors.append(message)


def close(csv_value: float, exact: float) -> bool:
    """Equal at the 6 significant digits the CSV emitters keep."""
    return abs(csv_value - exact) <= 1e-5 * max(abs(csv_value), abs(exact)) + 1e-9


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


# -- dense definitions -----------------------------------------------------


def _pcc_dense(x: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation of ballots; a constant ballot scores 1."""
    xf = x.astype(np.float64)
    centered = xf - xf.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    constant = norms == 0
    safe = np.where(constant, 1.0, norms)
    out = (centered @ centered.T) / np.outer(safe, safe)
    out[constant, :] = 1.0
    out[:, constant] = 1.0
    return out


def pcc_agr_dense(x: np.ndarray) -> float:
    """Mean PCC over all ordered ballot pairs, self-pairs included."""
    return float(_pcc_dense(x).mean())


def dense_indices(x: np.ndarray) -> dict:
    """satr, the six agreement indices and pair_pol from their definitions."""
    n, m = x.shape
    xf = x.astype(np.float64)
    scores = xf.sum(axis=0)
    lengths = xf.sum(axis=1)
    total = int(scores.sum())
    inter = xf @ xf.T  # integer-valued and exact in float64 at these sizes
    ham = lengths[:, None] + lengths[None, :] - 2.0 * inter
    out = {"satr": total / (n * m)}
    out["av_agr"] = float(np.abs(1.0 - 2.0 * scores / n).mean())
    # central ballot: approve a candidate iff more than half the voters do
    central = (2 * scores > n).astype(np.float64)
    chd = float(np.abs(xf - central).sum())
    min_side = min(total, n * m - total)
    out["cntr_agr"] = 1.0 if min_side == 0 else 1.0 - chd / min_side
    if total in (0, n * m):
        out["pair_agr"] = 1.0
    else:
        # mean pair distance over that of two independent ballots, 2 m satr (1 - satr)
        satr = total / (n * m)
        out["pair_agr"] = 1.0 - ham.mean() / (2.0 * m * satr * (1.0 - satr))
    pcc = _pcc_dense(x)
    out["pcc_agr"] = float(pcc.mean())
    out["pccplus_agr"] = float(np.maximum(pcc, 0.0).mean())
    union = lengths[:, None] + lengths[None, :] - inter
    out["jacc_agr"] = float(np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0).mean())
    out["pair_pol"] = 2.0 / m * float(ham.std())
    return out


def out_div_assignment(x: np.ndarray, seed: int) -> float:
    """Outer diversity with the matching solved as an assignment problem.

    The program's reference draw (``5n`` ballots from the seeded Philox
    stream at the election's saturation) is matched against each ballot
    repeated 5 times; the optimal one-to-one assignment of that square
    cost matrix is the integral optimum of the transportation problem.
    """
    n, m = x.shape
    total = int(x.sum())
    if total in (0, n * m):
        return 0.0
    p = total / (n * m)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, _OUT_DIV_STREAM], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    draws = (rng.random((_OUT_DIV_MULTIPLIER * n, m)) < p).astype(np.float64)
    voters = np.repeat(x.astype(np.float64), _OUT_DIV_MULTIPLIER, axis=0)
    cost = voters.sum(axis=1)[:, None] + draws.sum(axis=1)[None, :] - 2.0 * voters @ draws.T
    rows, cols = linear_sum_assignment(cost)
    distance = cost[rows, cols].sum() / (_OUT_DIV_MULTIPLIER * n * m)
    return min(1.0, max(0.0, 1.0 - distance / (2.0 * p * (1.0 - p))))


# -- compass-table -----------------------------------------------------------


def check_table(csv_text: str, labels: list, elections: list, seeds: list) -> Verdict:
    """``index_table.csv`` against dense evaluation of the same draws.

    ``elections[r][t]`` is the dense matrix of sample ``t`` of culture
    ``r`` and ``seeds[r][t]`` the seed the table used for it; election
    ``r * samples + t`` fails with its row.
    """
    verdict = Verdict()
    samples = len(elections[0])
    header, rows = read_csv(csv_text)
    by_label = {row[0]: row for row in rows if row}
    if len(rows) != len(labels):
        verdict.errors.append(f"index_table.csv has {len(rows)} rows, expected {len(labels)}")
    for r, label in enumerate(labels):
        items = range(r * samples, (r + 1) * samples)
        row = by_label.get(label)
        if row is None or len(row) != len(header):
            verdict.fail(items, f"{label}: row missing or ragged")
            continue
        means = {}
        try:
            for col, value in zip(header[1:], row[1:]):
                if col.endswith("_mean"):
                    means[col[: -len("_mean")]] = float(value)
        except ValueError:
            verdict.fail(items, f"{label}: non-numeric cell")
            continue
        bad = [name for name, value in means.items() if not 0.0 <= value <= 1.0]
        if bad:
            verdict.fail(items, f"{label}: means outside [0, 1]: {bad}")
        if label == "1/3-ID":
            wrong = [a for a in AGREEMENT if means.get(a) != 1.0]
            wrong += [d for d in DIV_POL if means.get(d) != 0.0]
            if wrong:
                verdict.fail(items, f"1/3-ID: not exactly 1 (agreement) / 0 (div, pol): {wrong}")
        dense = [dense_indices(x) for x in elections[r]]
        for name in ("satr", *AGREEMENT, "pair_pol"):
            if name not in means:
                continue
            exact = float(np.mean([d[name] for d in dense]))
            if not close(means[name], exact):
                verdict.fail(items, f"{label}: {name} {means[name]!r} != dense {exact:.9g}")
        if "out_div" in means:
            exact = float(np.mean([out_div_assignment(x, s) for x, s in zip(elections[r], seeds[r])]))
            if not close(means["out_div"], exact):
                verdict.fail(items, f"{label}: out_div {means['out_div']!r} != assignment {exact:.9g}")
    return verdict


# -- map-corpus ---------------------------------------------------------------

_DISTORTION = re.compile(r"mean multiplicative distortion: ([0-9.eE+-]+)")


def _distortion(dist: np.ndarray, points: np.ndarray) -> float:
    iu = np.triu_indices(len(points), 1)
    emb = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))[iu]
    true = dist[iu]
    mask = true > 1e-9
    if not mask.any():
        return 1.0
    return float(np.maximum(emb[mask] / true[mask], true[mask] / emb[mask]).mean())


def check_map(files: dict, stdout: str, labels: list, subsamples: list) -> Verdict:
    """The map outputs against recomputation from the files themselves.

    ``files`` maps output file names to their text; ``subsamples[i]`` is
    the dense matrix election ``i`` was featurized on.
    """
    verdict = Verdict()
    everything = range(len(labels))
    _, feat_rows = read_csv(files.get("map_features.csv", ""))
    if [row[0] for row in feat_rows] != list(labels):
        verdict.fail(everything, "map_features.csv rows do not match the manifest entries")
        return verdict
    try:
        feats = np.array([[float(v) for v in row[2:5]] for row in feat_rows])
        dist_header, dist_rows = read_csv(files.get("map_distances.csv", ""))
        dist = np.array([[float(v) for v in row[1:]] for row in dist_rows])
        _, emb_rows = read_csv(files.get("map_embedding.csv", ""))
        points = np.array([[float(v) for v in row[2:4]] for row in emb_rows])
    except ValueError as exc:
        verdict.fail(everything, f"non-numeric map output: {exc}")
        return verdict
    if feats.shape != (len(labels), 3) or dist.shape != (len(labels),) * 2:
        verdict.fail(everything, "map feature or distance matrix has the wrong shape")
        return verdict
    if points.shape != (len(labels), 2):
        verdict.fail(everything, "map_embedding.csv has the wrong shape")
        return verdict
    for i, row in enumerate(feats):
        if not ((row >= 0.0) & (row <= 1.0)).all():
            verdict.fail([i], f"{labels[i]}: feature outside [0, 1]: {row.tolist()}")
    recomputed = np.sqrt(((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2))
    # each feature carries up to 5e-7 of rounding, which a distance can inherit
    bad = np.abs(dist - recomputed) > 1e-5 * np.abs(recomputed) + 2e-6
    if bad.any():
        i, j = np.argwhere(bad)[0]
        verdict.fail(everything, f"distance ({i},{j}) {dist[i, j]!r} != {recomputed[i, j]:.9g}")
    match = _DISTORTION.search(stdout)
    if match is None:
        verdict.fail(everything, "no distortion line on standard output")
    else:
        printed = float(match.group(1))
        exact = _distortion(dist, points)
        if printed < 1.0:
            verdict.fail(everything, f"distortion {printed} is below 1")
        # 6 decimals printed; inputs rounded to 6 significant digits
        if not abs(printed - exact) <= 1e-4 * exact + 1e-6:
            verdict.fail(everything, f"printed distortion {printed} != recomputed {exact:.9g}")
    for i, x in enumerate(subsamples):
        exact = pcc_agr_dense(x)
        if not close(feats[i, 0], exact):
            verdict.fail([i], f"{labels[i]}: pcc_agr {feats[i, 0]!r} != dense {exact:.9g}")
    return verdict


# -- pabulib-index --------------------------------------------------------------

INDEX_CHECKED = ("satr", "pair_agr", "pcc_agr", "jacc_agr", "pair_pol")


def check_index(csv_text: str, code: int, paths: list, subsamples: list) -> Verdict:
    """``index`` CSV: one row per file, exit code 0, checked cells match."""
    verdict = Verdict()
    everything = range(len(paths))
    if code != 0:
        verdict.fail(everything, f"index exited with code {code}")
    header, rows = read_csv(csv_text)
    if len(rows) != len(paths):
        verdict.errors.append(f"index printed {len(rows)} rows for {len(paths)} files")
    by_file = {row[0]: row for row in rows if row}
    for i, path in enumerate(paths):
        row = by_file.get(path)
        if row is None or len(row) != len(header):
            verdict.fail([i], f"{path}: row missing or ragged")
            continue
        try:
            values = {name: float(v) for name, v in zip(header[2:], row[2:])}
        except ValueError:
            verdict.fail([i], f"{path}: non-numeric cell")
            continue
        bad = [name for name, v in values.items() if not (0.0 <= v <= 1.0 and math.isfinite(v))]
        if bad:
            verdict.fail([i], f"{path}: values outside [0, 1]: {bad}")
        dense = dense_indices(subsamples[i])
        for name in INDEX_CHECKED:
            if name in values and not close(values[name], dense[name]):
                verdict.fail([i], f"{path}: {name} {values[name]!r} != dense {dense[name]:.9g}")
    return verdict
