"""Span recorder installed around the package's public functions from outside.

The benchmark never edits the program.  ``install`` replaces each traced
function with a wrapper: in its defining module, in every ``approvaldap``
module that imported it by name, in module-level dicts that hold it
(``AGREEMENT_INDICES``) and in closures kept in such dicts (the adapters
of ``experiments._INDEX_FUNCS``).  Each wrapper records one span: name,
start, end, thread, parent span and a few facts taken from the arguments
or the result.  Spans are kept in memory and written as JSONL at the end.

``summarize`` turns spans into the per-layer metrics named in
``PER_LAYER`` (the list BENCHMARK.json declares).  A name the program no
longer defines or calls reports 0 calls; it never fails the run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

from checks import INDEX_NAMES

# (span name, module, attribute) of each plain wrapper; evaluate_index and
# scipy.linalg.eigh get the special wrappers built in install()
SPANS = (
    ("cli.main", "cli", "main"),
    ("experiments.mds_embed", "experiments", "mds_embed"),
    ("divpol.transport", "divpol", "linprog"),
    ("clustering.spectral_pcc", "clustering", "spectral_pcc"),
    ("clustering.kmedoids_hamming", "clustering", "kmedoids_hamming"),
    ("clustering.weighted_cluster_agreement", "clustering", "weighted_cluster_agreement"),
    ("core.restrict_voters", "core", "restrict_voters"),
    ("core.subsample", "core", "subsample"),
    ("metrics.intersection_matrix", "metrics", "intersection_matrix"),
    ("metrics.intersection_kernel", "metrics", "_intersection_matrix"),
    ("metrics.pcc_matrix", "metrics", "pcc_matrix"),
    ("metrics.hamming_matrix", "metrics", "hamming_matrix"),
    ("metrics.jaccard_similarity_matrix", "metrics", "jaccard_similarity_matrix"),
    ("metrics.cross_hamming", "metrics", "cross_hamming"),
    ("agreement.pcc_agr", "agreement", "pcc_agr"),
    ("agreement.cntr_agr", "agreement", "cntr_agr"),
    ("generators.sample", "generators", "sample"),
    ("io.parse_pabulib", "io", "parse_pabulib"),
    ("io.write_csv_matrix", "io", "write_csv_matrix"),
    ("io.write_svg", "io", "write_svg_scatter"),
    ("io.write_svg", "io", "write_svg_heatmap"),
)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    **{f"experiments.evaluate_index.{name}.busy_s": "s" for name in INDEX_NAMES},
    "experiments.election.samples": "count",
    "experiments.election.p50_ms": "ms",
    "experiments.election.tail_ms": "ms",
    "experiments.mds_embed.busy_s": "s",
    "experiments.mds_embed.iterations": "count",
    "divpol.transport.calls": "count",
    "divpol.transport.busy_s": "s",
    "divpol.transport.variables": "count",
    "divpol.transport.iterations": "count",
    "clustering.spectral_pcc.calls": "count",
    "clustering.spectral_pcc.busy_s": "s",
    "clustering.spectral_pcc.self_s": "s",
    "clustering.eigh.calls": "count",
    "clustering.eigh.busy_s": "s",
    "clustering.eigh.dim_sum": "count",
    "clustering.kmedoids_hamming.calls": "count",
    "clustering.kmedoids_hamming.busy_s": "s",
    "clustering.kmedoids_hamming.self_s": "s",
    "clustering.weighted_cluster_agreement.calls": "count",
    "clustering.weighted_cluster_agreement.busy_s": "s",
    "core.restrict_voters.calls": "count",
    "core.subsample.calls": "count",
    "core.subsample.busy_s": "s",
    "metrics.intersection_matrix.calls": "count",
    "metrics.intersection_matrix.computed": "count",
    "metrics.intersection_matrix.hit_ratio": "ratio",
    "metrics.intersection_matrix.busy_s": "s",
    "metrics.intersection_matrix.word_popcounts": "count",
    "metrics.intersection_matrix.bytes_computed": "bytes",
    **{
        f"metrics.{fn}.{kind}": unit
        for fn in ("pcc_matrix", "hamming_matrix", "jaccard_similarity_matrix", "cross_hamming")
        for kind, unit in (("calls", "count"), ("busy_s", "s"))
    },
    **{
        f"agreement.{fn}.{kind}": unit
        for fn in ("pcc_agr", "cntr_agr")
        for kind, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "generators.sample.calls": "count",
    "generators.sample.busy_s": "s",
    "io.parse_pabulib.calls": "count",
    "io.parse_pabulib.busy_s": "s",
    "io.parse_pabulib.mb_per_s": "MB/s",
    "io.write_csv_matrix.busy_s": "s",
    "io.write_svg.busy_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

# below this many per-election samples the tail percentile would be no tail
_TAIL_MIN_SAMPLES = 40
_TAIL_BEYOND = 10


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(id, name) of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, facts=None, rename=None):
        """Wrapper of ``fn`` that records a span per call.

        ``facts(args, kwargs, result)`` adds fields to the span; ``rename``
        maps the call arguments to a more specific span name.
        """

        def traced(*args, **kwargs):
            span_name = rename(args, kwargs) if rename else name
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            span_id = next(self._ids)
            stack.append((span_id, span_name))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": span_name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                }
                if facts is not None and result is not None:
                    span.update(facts(args, kwargs, result))
                self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _rebind(old, new) -> None:
    """Point every reference the package holds to ``old`` at ``new``."""
    seen_dicts = set()
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "approvaldap" and not mod_name.startswith("approvaldap."):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
            elif isinstance(value, dict) and id(value) not in seen_dicts:
                seen_dicts.add(id(value))
                for dkey, dval in list(value.items()):
                    if dval is old:
                        value[dkey] = new
                    elif not hasattr(dval, "__wrapped__"):  # never rewire a wrapper
                        _rebind_closure(dval, old, new)


def _rebind_closure(fn, old, new) -> None:
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            if cell.cell_contents is old:
                cell.cell_contents = new
        except ValueError:  # empty cell
            pass


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _kernel_facts(args, kwargs, result):
    # the popcount kernel: n^2 * words AND+popcount operations; bytes are
    # computed from the arrays it materialises (n*n*words uint64 temporaries
    # across all blocks plus the n*n int64 result), not measured
    e = _arg(args, kwargs, 0, "e")
    n, words = e.words.shape
    return {"word_popcounts": n * n * words, "bytes_computed": 8 * n * n * words + 8 * n * n}


def _transport_facts(args, kwargs, result):
    cost = _arg(args, kwargs, 0, "c")
    return {"variables": int(len(cost)), "iterations": int(getattr(result, "nit", 0) or 0)}


def _mds_facts(args, kwargs, result):
    return {"iterations": max(len(result.stress_path) - 1, 0)}


def _parse_facts(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 0, "text"))}


def _index_facts(args, kwargs, result):
    # the seed identifies the election: every caller derives one per election
    return {"election": str(args[2] if len(args) > 2 else kwargs.get("seed", 0))}


_FACTS = {
    "metrics.intersection_kernel": _kernel_facts,
    "divpol.transport": _transport_facts,
    "experiments.mds_embed": _mds_facts,
    "io.parse_pabulib": _parse_facts,
}


def install(rec: Recorder) -> None:
    """Wrap the traced functions of an imported ``approvaldap`` package.

    A module or function the package no longer has is skipped.
    """
    import scipy.linalg

    for span_name, mod_name, attr in SPANS:
        fn = getattr(sys.modules.get(f"approvaldap.{mod_name}"), attr, None)
        if fn is None:
            continue
        _rebind(fn, rec.wrap(span_name, fn, _FACTS.get(span_name)))

    evaluate = getattr(sys.modules.get("approvaldap.experiments"), "evaluate_index", None)
    if evaluate is not None:
        _rebind(
            evaluate,
            rec.wrap(
                "experiments.evaluate_index",
                evaluate,
                _index_facts,
                rename=lambda args, kwargs: "experiments.evaluate_index."
                + str(_arg(args, kwargs, 0, "name")),
            ),
        )

    # scipy.linalg.eigh is shared with the MDS start; only calls made under
    # a spectral_pcc span are attributed to clustering.eigh
    eigh = scipy.linalg.eigh
    traced_eigh = rec.wrap(
        "clustering.eigh", eigh, lambda args, kwargs, result: {"dim": int(len(args[0]))}
    )

    def eigh_dispatch(*args, **kwargs):
        top = rec.current()
        if top is not None and top[1] == "clustering.spectral_pcc":
            return traced_eigh(*args, **kwargs)
        return eigh(*args, **kwargs)

    scipy.linalg.eigh = eigh_dispatch


def _percentile_rank(values: list, beyond: int) -> float:
    """Highest order statistic with at least ``beyond`` samples above it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 1 - beyond]


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[dict], untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics (name -> value) from one traced CLI call.

    Spans that start a pool thread's stack are children of the root
    ``cli.main`` span, so its self time is the part of the call no traced
    work covers.  Self time subtracts the union of the child intervals,
    which parallel children may overlap.
    """
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["name"] == "cli.main"]
    root_id = roots[0]["id"] if roots else None
    children: dict = defaultdict(list)
    for span in spans:
        parent = span["parent"]
        if parent is None and span["id"] != root_id:
            parent = root_id
        if parent is not None:
            children[parent].append((span["start"], span["end"]))

    def outermost(span) -> bool:
        # a span nested in one of the same name is already inside its busy time
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return False
            parent = by_id.get(parent["parent"])
        return True

    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    sums: dict = defaultdict(float)
    per_election: dict = defaultdict(float)
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        calls[name] += 1
        self_time[name] += duration - _covered(children[span["id"]])
        if outermost(span):
            busy[name] += duration
        for key in ("variables", "iterations", "dim", "word_popcounts", "bytes_computed", "bytes"):
            if key in span:
                sums[f"{name}.{key}"] += span[key]
        if "election" in span:
            per_election[span["election"]] += duration

    out = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[base]
        elif kind == "busy_s":
            out[metric] = busy[base]
        elif kind == "self_s":
            out[metric] = self_time[base]

    out["experiments.mds_embed.iterations"] = int(sums["experiments.mds_embed.iterations"])
    out["divpol.transport.variables"] = int(sums["divpol.transport.variables"])
    out["divpol.transport.iterations"] = int(sums["divpol.transport.iterations"])
    out["clustering.eigh.dim_sum"] = int(sums["clustering.eigh.dim"])

    inter_calls = calls["metrics.intersection_matrix"]
    computed = calls["metrics.intersection_kernel"]
    out["metrics.intersection_matrix.computed"] = computed
    out["metrics.intersection_matrix.hit_ratio"] = (
        (inter_calls - computed) / inter_calls if inter_calls else 0.0
    )
    out["metrics.intersection_matrix.word_popcounts"] = int(
        sums["metrics.intersection_kernel.word_popcounts"]
    )
    out["metrics.intersection_matrix.bytes_computed"] = int(
        sums["metrics.intersection_kernel.bytes_computed"]
    )
    parse_busy = busy["io.parse_pabulib"]
    out["io.parse_pabulib.mb_per_s"] = (
        sums["io.parse_pabulib.bytes"] / 1e6 / parse_busy if parse_busy > 0 else 0.0
    )

    times_ms = [1e3 * value for value in per_election.values()]
    out["experiments.election.samples"] = len(times_ms)
    if times_ms:
        p50 = statistics.median(times_ms)
        tail = (
            _percentile_rank(times_ms, _TAIL_BEYOND) if len(times_ms) >= _TAIL_MIN_SAMPLES else p50
        )
    else:
        p50 = tail = 0.0
    out["experiments.election.p50_ms"] = p50
    out["experiments.election.tail_ms"] = tail

    out["trace.spans"] = len(spans)
    out["trace.overhead_pct"] = 100.0 * (traced_wall_s / untraced_wall_s - 1.0)
    return out
