"""The three workloads: inputs made from a seed, the CLI call, and its check.

Each ``make_*`` function writes the workload's inputs into a directory and
returns a ``Plan``: the CLI arguments (run from a sibling directory of the
inputs, so paths start with ``../``), the number of elections one call
indexes, and the check of one call's outputs.  Parameters beyond the seed
exist so the benchmark's own test can run a small instance of each check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# the parameter draw of the bundled synthetic corpus (data/synthetic_map.json)
MAP_CORPUS_SEED = 20260809
# samples per compass culture; small enough that a run makes five or more
# calls, so its medians are not at the mercy of one slow call
TABLE_SAMPLES = 2
# Pabulib-shaped files, drawn from the package's own cultures at saturation
# 3-15 %: one file is above the 200-candidate cap, all are above the
# 1000-voter cap.  Resampling puts the popular projects first; the
# Euclidean culture approves the projects near a voter.
PB_SPECS = (
    ("resampling", 30, 5_000, {"p": 0.15, "phi": 0.5}),
    ("euclidean", 260, 20_000, {"variant": 1}),
    ("resampling", 120, 60_000, {"p": 0.05, "phi": 0.75}),
)
# every index except out_div, which takes minutes at 1000 voters
PB_INDICES = tuple(name for name in checks.INDEX_NAMES if name != "out_div")


@dataclass
class Plan:
    argv: list
    elections: int
    check: Callable  # (out_dir: Path, stdout: str, exit_code: int) -> checks.Verdict


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""


# -- compass-table ------------------------------------------------------------


def make_compass_table(seed: int, inputs: Path, specs=None, samples: int = TABLE_SAMPLES) -> Plan:
    """``table`` over the 14 compass cultures, drawn under ``seed``.

    With seed 42 this is exactly ``table --compass``; the manifest form
    lets the seed vary the draws.
    """
    from approvaldap.experiments import compass_specs, derive_seed
    from approvaldap.generators import sample

    specs = compass_specs() if specs is None else specs
    manifest = {"seed": seed, "samples": samples, "specs": [s.to_dict() for s in specs]}
    (inputs / "compass.json").write_text(json.dumps(manifest), encoding="utf-8")
    labels = [s.display_label() for s in specs]
    total = len(specs) * samples

    def check(out_dir: Path, stdout: str, code: int) -> checks.Verdict:
        seeds = [[derive_seed(seed, "table", r, t) for t in range(samples)] for r in range(len(specs))]
        elections = [
            [sample(spec.with_seed(s)).matrix for s in row] for spec, row in zip(specs, seeds)
        ]
        verdict = checks.check_table(_read(out_dir / "index_table.csv"), labels, elections, seeds)
        if code != 0:
            verdict.fail(range(total), f"table exited with code {code}")
        return verdict

    argv = ["table", "--manifest", f"../{inputs.name}/compass.json", "--out-dir", "."]
    return Plan(argv=argv, elections=total, check=check)


# -- map-corpus ----------------------------------------------------------------


def make_map_corpus(seed: int, inputs: Path, entries=None) -> Plan:
    """``map`` over a fixed slice of the synthetic corpus, re-drawn under ``seed``.

    The slice keeps the corpus' family parameters; only the elections'
    own seeds and the map seed come from ``seed``.
    """
    from approvaldap.core import subsample
    from approvaldap.experiments import (
        SUBSAMPLE_CANDIDATES,
        SUBSAMPLE_VOTERS,
        MapEntry,
        derive_seed,
        synthetic_map_entries,
    )
    from approvaldap.generators import sample

    if entries is None:
        groups: dict = {}
        for en in synthetic_map_entries(MAP_CORPUS_SEED):
            groups.setdefault(en.group, []).append(en)
        # the middle entry of each of the ten groups: six of them 100x1000
        entries = [members[len(members) // 2] for members in groups.values()]
    entries = [
        MapEntry(en.group, en.spec.with_seed(derive_seed(seed, "map-corpus", i)))
        for i, en in enumerate(entries)
    ]
    manifest = {"seed": seed, "entries": [en.to_dict() for en in entries]}
    (inputs / "map.json").write_text(json.dumps(manifest), encoding="utf-8")
    labels = [en.spec.display_label() for en in entries]

    def check(out_dir: Path, stdout: str, code: int) -> checks.Verdict:
        subsamples = [
            subsample(
                sample(en.spec), SUBSAMPLE_CANDIDATES, SUBSAMPLE_VOTERS, derive_seed(seed, "map", i)
            ).matrix
            for i, en in enumerate(entries)
        ]
        files = {
            name: _read(out_dir / name)
            for name in ("map_features.csv", "map_distances.csv", "map_embedding.csv")
        }
        verdict = checks.check_map(files, stdout, labels, subsamples)
        if code != 0:
            verdict.fail(range(len(entries)), f"map exited with code {code}")
        return verdict

    argv = ["map", "--manifest", f"../{inputs.name}/map.json", "--out-dir", "."]
    return Plan(argv=argv, elections=len(entries), check=check)


# -- pabulib-index -----------------------------------------------------------------


def write_pb(path: Path, ballots: np.ndarray, description: str) -> None:
    n, m = ballots.shape
    ids = np.array([str(j + 1) for j in range(m)])
    lines = [
        "META",
        "key;value",
        f"description;{description}",
        "vote_type;approval",
        f"num_projects;{m}",
        f"num_votes;{n}",
        "PROJECTS",
        "project_id;cost;name",
        *(f"{j + 1};{1000 * (j % 7 + 1)};project {j + 1}" for j in range(m)),
        "VOTES",
        "voter_id;vote",
        *(f"{i + 1};{','.join(ids[row.astype(bool)])}" for i, row in enumerate(ballots)),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_pabulib_index(seed: int, inputs: Path, specs=PB_SPECS) -> Plan:
    """One ``index`` call over seeded Pabulib files, default subsampling."""
    from approvaldap.core import Election, subsample
    from approvaldap.experiments import SUBSAMPLE_CANDIDATES, SUBSAMPLE_VOTERS, derive_seed
    from approvaldap.generators import CultureSpec, sample

    paths, matrices = [], []
    for i, (family, m, n, params) in enumerate(specs):
        spec = CultureSpec(family, m, n, seed=derive_seed(seed, "pabulib", i), params=params)
        ballots = sample(spec).matrix
        name = f"city{i}_{m}x{n}.pb"
        write_pb(inputs / name, ballots, f"bench city {i}")
        paths.append(f"../{inputs.name}/{name}")
        matrices.append(ballots)

    def check(out_dir: Path, stdout: str, code: int) -> checks.Verdict:
        subsamples = [
            subsample(
                Election(x), SUBSAMPLE_CANDIDATES, SUBSAMPLE_VOTERS, derive_seed(seed, "index", i)
            ).matrix
            for i, x in enumerate(matrices)
        ]
        return checks.check_index(stdout, code, paths, subsamples)

    argv = ["index", *paths, "--indices", ",".join(PB_INDICES), "--seed", str(seed)]
    return Plan(argv=argv, elections=len(paths), check=check)


WORKLOADS = {
    "compass-table": make_compass_table,
    "map-corpus": make_map_corpus,
    "pabulib-index": make_pabulib_index,
}
