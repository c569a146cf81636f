"""Command-line interface.

Subcommands: ``generate`` (sample a culture to a native election file),
``index`` (tabulate indices for election files), ``table`` (index table
over a manifest of cultures), ``resample`` (saturation-independence
grid), and ``map`` (feature-distance map with MDS embedding).

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error or
too little memory.  Manifests must carry an explicit seed; ad-hoc commands
default to seed 0 with a printed notice.  Each command runs with the
OpenBLAS of numpy and of scipy on one thread, unless ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS`` is set (see :func:`approvaldap._solvers.one_blas_thread`).
``table``, ``resample``, ``map`` and ``index`` score their independent
items (samples, grid cells, map elections, files) in one process per CPU
that this process may run on, within its cgroup's CPU quota, and fewer
for ``out_div`` where its matrices would not fit in its 1 GiB limit
together; the items are handed out one at a time, and the outputs,
messages and exit codes are the same at any count.  On a system without
``os.fork`` and ``os.sched_getaffinity`` they run as a plain loop.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import divpol, experiments
from . import io as eio
from ._solvers import one_blas_thread
from .core import Election, stats, subsample
from .divpol import check_out_div_size
from .generators import FAMILIES, CultureSpec, SpecError, gen_noisy, sample
from .io import ParseError


class ManifestError(ValueError):
    """Manifest validation failure, carrying a JSON pointer to the culprit."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer, self.message = pointer, message

    def __reduce__(self):  # so that it crosses from a worker process intact
        return type(self), (self.pointer, self.message)


def _worker_count() -> int:
    """Processes that score a command's items: one per CPU this process may
    run on, no more than its cgroup's CPU quota, and one on a system
    without ``os.fork`` and ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), _cpu_quota())


def _cpu_quota(root: str = "/sys/fs/cgroup") -> float:
    """The CPUs' worth of run time that this process's cgroup allows
    (cgroup v2 ``cpu.max``, v1 ``cpu.cfs_quota_us``), rounded up; infinite
    where no quota is set or none can be read."""
    v2 = Path(root, "cpu.max")
    v1 = [Path(root, "cpu", f"cpu.cfs_{name}_us") for name in ("quota", "period")]
    try:
        quota, period = v2.read_text().split() if v2.exists() else (f.read_text() for f in v1)
        if quota.strip() in ("max", "-1"):
            return math.inf
        return max(1, math.ceil(int(quota) / int(period)))
    except (OSError, ValueError):
        return math.inf


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.workers = _worker_count()
    try:
        with one_blas_thread():
            return args.handler(args)
    except ValueError as exc:  # a ManifestError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approvaldap",
        description="Agreement, diversity, and polarization analysis of approval elections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample one election and write it as JSON")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen.add_argument("--m", type=int, help="number of candidates (noisy: the base's)")
    gen.add_argument("--n", type=int, help="number of voters (defaults to m; noisy: the base's)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--p", type=float, help="approval probability / identity fraction")
    gen.add_argument("--phi", type=float, help="resampling noise")
    gen.add_argument("--k", type=int, help="number of parties or groups")
    gen.add_argument("--x", type=float, help="candidate fraction of the first party")
    gen.add_argument("--y", type=float, help="voter fraction of the first party")
    gen.add_argument("--variant", type=int, help="euclidean variant 1..5")
    gen.add_argument("--probs", help="comma-separated per-candidate probabilities")
    gen.add_argument("--base", help="native election file for the noisy family")
    gen.add_argument("--label", help="label stored in the output file")
    gen.add_argument("--out", required=True, help="output path for the native election file")
    gen.set_defaults(handler=_cmd_generate)

    idx = sub.add_parser("index", help="compute indices for election files, CSV to stdout")
    idx.add_argument("paths", nargs="+", help="election files (.pb or native JSON)")
    idx.add_argument("--indices", default=",".join(experiments.INDEX_NAMES))
    idx.add_argument("--seed", type=int, default=None)
    idx.add_argument(
        "--full",
        action="store_true",
        help="index the full election; by default elections beyond "
        f"{experiments.SUBSAMPLE_CANDIDATES} candidates or {experiments.SUBSAMPLE_VOTERS} "
        "voters are subsampled first",
    )
    idx.set_defaults(handler=_cmd_index)

    tab = sub.add_parser("table", help="mean/std index table over a culture manifest")
    tab_src = tab.add_mutually_exclusive_group(required=True)
    tab_src.add_argument("--manifest", help="culture manifest (specs, samples, seed)")
    tab_src.add_argument(
        "--compass",
        action="store_true",
        help=f"the fourteen compass cultures, {experiments.COMPASS_SAMPLES} samples each "
        f"at seed {experiments.COMPASS_SEED}",
    )
    tab.add_argument("--out-dir", default=".")
    tab.set_defaults(handler=_cmd_table)

    res = sub.add_parser("resample", help="saturation-independence grid for one index")
    res.add_argument("--index", required=True, choices=experiments.INDEX_NAMES)
    res.add_argument("--m", type=int, default=60)
    res.add_argument("--n", type=int, default=60)
    res.add_argument("--samples", type=int, default=10)
    res.add_argument("--seed", type=int, default=None)
    res.add_argument("--out-dir", default=".")
    res.set_defaults(handler=_cmd_resample)

    mp = sub.add_parser("map", help="feature-distance map with planar MDS embedding")
    src = mp.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", help="map manifest (specs and/or election files)")
    src.add_argument(
        "--synthetic",
        action="store_true",
        help=f"the 244-election synthetic corpus at seed {experiments.SYNTHETIC_MAP_SEED}",
    )
    mp.add_argument("--out-dir", default=".")
    mp.set_defaults(handler=_cmd_map)

    return parser


def _ad_hoc_seed(seed: Optional[int]) -> int:
    if seed is None:
        print("notice: no --seed given, defaulting to 0", file=sys.stderr)
        return 0
    return seed


# -- generate -----------------------------------------------------------


def _cmd_generate(args) -> int:
    seed = _ad_hoc_seed(args.seed)
    if args.family == "noisy":
        if not args.base or args.phi is None:
            raise ValueError("the noisy family needs --base <native election file> and --phi")
        base = _read_election(Path(args.base))
        shape = (base.num_candidates, base.num_voters)
        asked = (shape[0] if args.m is None else args.m, shape[1] if args.n is None else args.n)
        if asked != shape:
            raise ValueError(
                f"the noisy family keeps the base's shape m={shape[0]} n={shape[1]}, "
                f"not m={asked[0]} n={asked[1]}"
            )
        e = gen_noisy(base, args.phi, seed)
    else:
        if args.m is None:
            raise ValueError(f"the {args.family} family needs --m")
        n = args.n if args.n is not None else args.m
        params = _collect_params(args)
        spec = CultureSpec(family=args.family, m=args.m, n=n, seed=seed, params=params)
        e = sample(spec)
    if args.label:
        e.label = args.label
    Path(args.out).write_text(eio.write_native(e), encoding="utf-8")
    st = stats(e)
    print(f"m={e.num_candidates} n={e.num_voters} satr={st.satr:.6g} -> {args.out}")
    return 0


def _collect_params(args) -> dict:
    params: dict = {}
    for name in ("p", "phi", "x", "y", "k", "variant"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.probs is not None:
        params["probs"] = [float(tok) for tok in args.probs.split(",") if tok.strip()]
    missing = [key for key in FAMILIES[args.family].params if key not in params]
    if missing:
        raise ValueError(f"family {args.family!r} needs --{' --'.join(missing)}")
    return params


# -- index --------------------------------------------------------------


def _read_election(path: Path) -> Election:
    data = path.read_bytes()
    if path.suffix.lower() == ".pb":
        return eio.parse_pabulib(data)
    return eio.read_native(data.decode("utf-8"))


class _FileFailure(Exception):
    """An unforeseen failure of one ``index`` file: the stderr lines that
    the file printed before it, and the exception."""

    def __init__(self, lines: list, cause: Exception):
        super().__init__(lines, cause)
        self.lines, self.cause = lines, cause


def _index_file(path: Path, names: list, seed: int, full: bool) -> tuple:
    """One file of ``index``: its CSV row or None, its stderr lines, and
    how it failed: None, "unreadable" (exit 1) or "refused" (exit 2).  Any
    other failure raises :class:`_FileFailure`."""
    lines = []
    try:
        try:
            e = _read_election(path)
        except (OSError, ParseError, UnicodeDecodeError) as exc:  # missing, unreadable, malformed
            lines.append(f"error: {path}: {getattr(exc, 'strerror', None) or exc}")
            return None, lines, "unreadable"
        if not full:
            whole = e
            e = subsample(e, experiments.SUBSAMPLE_CANDIDATES, experiments.SUBSAMPLE_VOTERS, seed)
            if e is not whole:
                lines.append(
                    f"notice: {path}: subsampled {whole.num_voters}x{whole.num_candidates} -> "
                    f"{e.num_voters}x{e.num_candidates} (use --full to keep all)"
                )
        if "out_div" in names:
            try:
                check_out_div_size(e)
            except ValueError as exc:
                lines.append(f"error: {path}: {exc}")
                return None, lines, "refused"
        values = [experiments.evaluate_index(name, e, seed) for name in names]
    except Exception as exc:
        raise _FileFailure(lines, exc) from exc
    return [str(path), e.label or "", *values], lines, None


def _cmd_index(args) -> int:
    seed = _ad_hoc_seed(args.seed)
    names = [tok.strip() for tok in args.indices.split(",") if tok.strip()]
    if not names:
        raise ValueError(f"--indices {args.indices!r}: no index named")
    for name in names:
        if name not in experiments.INDEX_NAMES:
            raise ValueError(f"unknown index {name!r}")

    def index_file(i: int) -> tuple:
        run_seed = experiments.derive_seed(seed, "index", i)
        return _index_file(Path(args.paths[i]), names, run_seed, args.full)

    workers = args.workers
    if "out_div" in names:  # under --full, one file's matrices may fill the limit
        largest = (experiments.SUBSAMPLE_VOTERS, experiments.SUBSAMPLE_CANDIDATES)
        workers = min(workers, 1 if args.full else divpol._out_div_fit([largest]))
    rows, failures = [], []
    try:
        for row, lines, failure in experiments._map_items(index_file, len(args.paths), workers):
            for line in lines:
                print(line, file=sys.stderr)
            if row is not None:
                rows.append(row)
            failures.append(failure)
    except _FileFailure as exc:
        for line in exc.lines:
            print(line, file=sys.stderr)
        raise exc.cause from None
    sys.stdout.write(eio.write_csv_matrix(rows, ["file", "label", *names]))
    # too large for out_div: validation error (2); unreadable: runtime failure (1)
    return 2 if "refused" in failures else 1 if "unreadable" in failures else 0


# -- manifests ----------------------------------------------------------


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError("/", f"invalid JSON ({exc.msg} at line {exc.lineno})") from None


def _require(doc, key, pointer, kind, type_name):
    if key not in doc:
        raise ManifestError(f"{pointer}{key}", "required field is missing")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ManifestError(f"{pointer}{key}", f"must be {type_name}")
    return value


def _draw_spec(entry, pointer: str) -> tuple[CultureSpec, Election]:
    """The manifest spec at ``pointer`` and its election, every refusal,
    the sampler's included, raised as a :class:`ManifestError` there."""
    if not isinstance(entry, dict):
        raise ManifestError(pointer, "must be an object")
    for key in ("family", "m", "n"):
        if key not in entry:
            raise ManifestError(f"{pointer}/{key}", "required field is missing")
    if "seed" not in entry:
        raise ManifestError(f"{pointer}/seed", "manifests must pin an explicit seed")
    try:
        spec = CultureSpec.from_dict(entry)
    except SpecError as exc:
        raise ManifestError(f"{pointer}{exc.field}", exc.message) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(pointer, str(exc)) from None
    try:
        return spec, sample(spec)
    except ValueError as exc:  # parameters the sampler refuses
        raise ManifestError(pointer, str(exc)) from None


def _table_manifest(doc):
    if not isinstance(doc, dict):
        raise ManifestError("/", "manifest must be a JSON object")
    seed = _require(doc, "seed", "/", int, "an integer")
    samples = doc.get("samples", 10)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise ManifestError("/samples", "must be a positive integer")
    raw_specs = _require(doc, "specs", "/", list, "a list")
    # each spec is drawn once here, so that a value its sampler refuses
    # gets its pointer; index_table draws its samples later
    specs = [_draw_spec(entry, f"/specs/{i}")[0] for i, entry in enumerate(raw_specs)]
    if not specs:
        raise ManifestError("/specs", "must not be empty")
    indices = doc.get("indices", list(experiments.INDEX_NAMES))
    if not isinstance(indices, list) or not indices:
        raise ManifestError("/indices", "must be a non-empty list")
    for i, name in enumerate(indices):
        if name not in experiments.INDEX_NAMES:
            raise ManifestError(f"/indices/{i}", f"unknown index {name!r}")
    return specs, samples, seed, indices


def _cmd_table(args) -> int:
    if args.compass:
        specs = experiments.compass_specs()
        samples, seed = experiments.COMPASS_SAMPLES, experiments.COMPASS_SEED
        indices = list(experiments.INDEX_NAMES)
    else:
        specs, samples, seed, indices = _table_manifest(_load_json(args.manifest))
    table = experiments.index_table(
        specs, samples=samples, seed=seed, indices=indices, workers=args.workers
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "index_table.csv"
    target.write_text(table.to_csv(), encoding="utf-8")
    print(f"wrote {target}")
    return 0


def _cmd_resample(args) -> int:
    seed = _ad_hoc_seed(args.seed)
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    matrix = experiments.resampling_experiment(
        args.index, m=args.m, n=args.n, samples=args.samples, seed=seed, workers=args.workers
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"resampling_{args.index}.csv"
    svg_path = out_dir / f"resampling_{args.index}.svg"
    csv_path.write_text(matrix.to_csv(), encoding="utf-8")
    svg_path.write_text(
        eio.write_svg_heatmap(
            matrix.values,
            [f"p={p:g}" for p in matrix.p_values],
            [f"{phi:g}" for phi in matrix.phi_values],
            title=f"resampling grid: {args.index}",
        ),
        encoding="utf-8",
    )
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _check_group(raw: dict, pointer: str) -> None:
    if not isinstance(raw.get("group", ""), str):
        raise ManifestError(f"{pointer}/group", "must be a string")


def _map_manifest(doc):
    if not isinstance(doc, dict):
        raise ManifestError("/", "manifest must be a JSON object")
    seed = _require(doc, "seed", "/", int, "an integer")

    items: list[tuple[str, str, Election]] = []
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ManifestError("/entries", "must be a list")
    for i, raw in enumerate(entries):
        pointer = f"/entries/{i}"
        if not isinstance(raw, dict) or "spec" not in raw:
            raise ManifestError(pointer, "must be an object with a 'spec' field")
        _check_group(raw, pointer)
        spec, e = _draw_spec(raw["spec"], f"{pointer}/spec")
        items.append((spec.display_label(), raw.get("group", spec.family), e))
    files = doc.get("files", [])
    if not isinstance(files, list):
        raise ManifestError("/files", "must be a list")
    for i, raw in enumerate(files):
        pointer = f"/files/{i}"
        if isinstance(raw, str):
            raw = {"path": raw}
        if not isinstance(raw, dict) or "path" not in raw:
            raise ManifestError(pointer, "must be a path or an object with a 'path' field")
        if not isinstance(raw["path"], str):
            raise ManifestError(f"{pointer}/path", "must be a string")
        _check_group(raw, pointer)
        path = Path(raw["path"])
        try:
            e = _read_election(path)
        except OSError as exc:
            raise ManifestError(f"{pointer}/path", f"{path}: {exc.strerror or exc}") from None
        except (ParseError, UnicodeDecodeError) as exc:
            raise ManifestError(f"{pointer}/path", f"{path}: {exc}") from None
        items.append((e.label or path.name, raw.get("group", "file"), e))
    if len(items) < 2:
        raise ManifestError("/", "map needs at least two elections (entries plus files)")
    return seed, items


def _cmd_map(args) -> int:
    if args.synthetic:
        seed = experiments.SYNTHETIC_MAP_SEED
        items = [
            (en.spec.display_label(), en.group, sample(en.spec))
            for en in experiments.synthetic_map_entries(seed)
        ]
    else:
        seed, items = _map_manifest(_load_json(args.manifest))
    result = experiments.map_of_elections(items, seed=seed, workers=args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "map_features.csv").write_text(result.feature_csv(), encoding="utf-8")
    (out_dir / "map_distances.csv").write_text(result.distance_csv(), encoding="utf-8")
    (out_dir / "map_embedding.csv").write_text(result.embedding_csv(), encoding="utf-8")
    (out_dir / "map.svg").write_text(
        eio.write_svg_scatter(result.embedding.points, list(result.groups), title="map of elections"),
        encoding="utf-8",
    )
    print(f"wrote map files to {out_dir}")
    print(f"mean multiplicative distortion: {result.embedding.distortion:.6f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
