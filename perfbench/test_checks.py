"""The benchmark's output checks accept real outputs and reject perturbed ones.

Each test runs a small instance of a workload through ``approvaldap.cli.main``,
checks that the untouched output passes, then perturbs one cell (by 1e-4
relative, beyond the 6 significant digits the CSVs carry) or drops one
row and checks that the verdict names the affected elections.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from approvaldap import cli  # noqa: E402
from approvaldap.experiments import compass_specs, synthetic_map_entries  # noqa: E402

SEED = 7


def run_plan(make, tmp_path: Path, monkeypatch, **kwargs):
    inputs = tmp_path / "inputs"
    out = tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    plan = make(SEED, inputs, **kwargs)
    monkeypatch.chdir(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(plan.argv)
    return plan, out, stdout.getvalue(), code


def edit_csv(text: str, row: int, column, change) -> str:
    """Apply ``change`` to one cell (row 0 is the first data row; the column
    is a header name or an index); a ``change`` of None drops the row."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    if change is None:
        del rows[row + 1]
    else:
        col = column if isinstance(column, int) else header.index(column)
        rows[row + 1][col] = change(rows[row + 1][col])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


def nudge(cell: str) -> str:
    value = float(cell)
    return format(value * (1 + 1e-4) if value else 1e-4, ".6g")


# -- compass-table ------------------------------------------------------------


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("table")
    with pytest.MonkeyPatch.context() as mp:
        specs = [s for s in compass_specs() if s.label in ("1/3-ID", "2-Party", "1/2-IC")]
        plan, out, stdout, code = run_plan(
            workloads.make_compass_table, tmp, mp, specs=specs, samples=2
        )
    return plan, out, code


def rewrite(out: Path, name: str, text: str, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    (copy / name).write_text(text, encoding="utf-8")
    return copy


def test_table_check_accepts_real_output(table_run):
    plan, out, code = table_run
    verdict = plan.check(out, "", code)
    assert code == 0 and not verdict.errors and not verdict.failed


@pytest.mark.parametrize(
    "row, column, change, failed",
    [
        (2, "pcc_agr_mean", nudge, {4, 5}),
        (2, "out_div_mean", nudge, {4, 5}),
        (0, "pcc_div_mean", lambda cell: "0.001", {0, 1}),
        (1, "jacc_agr_mean", None, {2, 3}),
    ],
)
def test_table_check_rejects_perturbed_output(table_run, tmp_path, row, column, change, failed):
    plan, out, code = table_run
    text = (out / "index_table.csv").read_text(encoding="utf-8")
    copy = rewrite(out, "index_table.csv", edit_csv(text, row, column, change), tmp_path)
    verdict = plan.check(copy, "", code)
    assert verdict.errors and verdict.failed == failed


# -- map-corpus ------------------------------------------------------------------


@pytest.fixture(scope="module")
def map_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("map")
    corpus = synthetic_map_entries(workloads.MAP_CORPUS_SEED)
    entries = corpus[:3] + [en for en in corpus if en.group == "N(2-Party)"][:2]
    with pytest.MonkeyPatch.context() as mp:
        plan, out, stdout, code = run_plan(workloads.make_map_corpus, tmp, mp, entries=entries)
    return plan, out, stdout, code


def test_map_check_accepts_real_output(map_run):
    plan, out, stdout, code = map_run
    verdict = plan.check(out, stdout, code)
    assert code == 0 and not verdict.errors and not verdict.failed


@pytest.mark.parametrize(
    "name, row, column, change, failed",
    [
        ("map_features.csv", 3, "agr", nudge, {3}),
        ("map_features.csv", 1, "pol", lambda cell: "1.5", {0, 1, 2, 3, 4}),
        ("map_features.csv", 4, "agr", None, {0, 1, 2, 3, 4}),
        ("map_distances.csv", 2, 1, nudge, {0, 1, 2, 3, 4}),
        ("map_embedding.csv", 0, "x", lambda cell: format(float(cell) + 0.05, ".6g"), {0, 1, 2, 3, 4}),
    ],
)
def test_map_check_rejects_perturbed_output(map_run, tmp_path, name, row, column, change, failed):
    plan, out, stdout, code = map_run
    text = (out / name).read_text(encoding="utf-8")
    copy = rewrite(out, name, edit_csv(text, row, column, change), tmp_path)
    verdict = plan.check(copy, stdout, code)
    assert verdict.errors and failed <= verdict.failed


def test_map_check_rejects_wrong_distortion(map_run):
    plan, out, stdout, code = map_run
    printed = stdout.split("distortion: ")[1].split()[0]
    wrong = stdout.replace(printed, format(float(printed) * 1.001, ".6f"))
    verdict = plan.check(out, wrong, code)
    assert verdict.errors and verdict.failed == {0, 1, 2, 3, 4}


# -- pabulib-index --------------------------------------------------------------------


@pytest.fixture(scope="module")
def index_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("index")
    specs = (
        ("resampling", 20, 1500, {"p": 0.15, "phi": 0.5}),
        ("euclidean", 210, 1200, {"variant": 1}),
    )
    with pytest.MonkeyPatch.context() as mp:
        plan, out, stdout, code = run_plan(workloads.make_pabulib_index, tmp, mp, specs=specs)
    return plan, out, stdout, code


def test_index_check_accepts_real_output(index_run):
    plan, out, stdout, code = index_run
    verdict = plan.check(out, stdout, code)
    assert code == 0 and not verdict.errors and not verdict.failed


@pytest.mark.parametrize(
    "row, column, change, failed",
    [
        (1, "pair_agr", nudge, {1}),
        (0, "jacc_agr", nudge, {0}),
        (0, "satr", None, {0}),
    ],
)
def test_index_check_rejects_perturbed_output(index_run, row, column, change, failed):
    plan, out, stdout, code = index_run
    verdict = plan.check(out, edit_csv(stdout, row, column, change), code)
    assert verdict.errors and verdict.failed == failed


def test_index_check_rejects_nonzero_exit(index_run):
    plan, out, stdout, code = index_run
    verdict = plan.check(out, stdout, 1)
    assert verdict.errors and verdict.failed == {0, 1}


# -- the benchmark's own bookkeeping -------------------------------------------------


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.PER_LAYER


def test_tally_never_counts_more_failures_than_attempts(tmp_path):
    def record(name, text, code=0):
        out = tmp_path / name
        out.mkdir()
        (out / "index_table.csv").write_text(text, encoding="utf-8")
        return {"dir": out, "stdout": "", "code": code, "error": None, "stderr": ""}

    def check(out_dir, stdout, code):
        verdict = checks.Verdict()
        verdict.fail(range(3), "wrong")
        return verdict

    plan = workloads.Plan(argv=[], elections=3, check=check)
    # untraced and traced outputs differ, and both fail their check
    attempted, failed, errors = run.tally(plan, [record("r0", "a"), record("r1", "b")], trace=True)
    assert (attempted, failed) == (6, 6) and len(errors) == 3
    # identical rounds share one check but each counts its own elections
    rounds = [record(f"s{i}", "a") for i in range(3)]
    attempted, failed, errors = run.tally(plan, rounds, trace=False)
    assert (attempted, failed, errors) == (9, 9, ["wrong"])


def test_summarize_self_time_subtracts_the_union_of_children():
    def span(id, parent, name, start, end, **facts):
        return {"id": id, "parent": parent, "name": name, "start": start, "end": end, **facts}

    spans = [
        span(1, None, "cli.main", 0.0, 10.0),
        # two pool threads: orphans that overlap, covering [1, 7]
        span(2, None, "experiments.evaluate_index.pcc_div", 1.0, 6.0, election="a"),
        span(3, None, "experiments.evaluate_index.pcc_div", 2.0, 7.0, election="b"),
        span(4, 2, "clustering.spectral_pcc", 1.0, 5.0),
        span(5, 4, "clustering.eigh", 1.0, 2.0, dim=30),
        span(6, 2, "metrics.intersection_matrix", 5.0, 5.5),
        span(7, 6, "metrics.intersection_kernel", 5.0, 5.4, word_popcounts=9, bytes_computed=80),
        span(8, 3, "metrics.intersection_matrix", 6.0, 6.1),
        span(9, None, "generators.sample", 8.0, 9.0),
        span(10, 9, "generators.sample", 8.0, 8.5),  # the base draw of a noisy culture
    ]
    out = tracer.summarize(spans, untraced_wall_s=8.0, traced_wall_s=10.0)
    assert out["cli.main.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert out["experiments.evaluate_index.pcc_div.busy_s"] == pytest.approx(10.0)
    assert out["clustering.spectral_pcc.self_s"] == pytest.approx(3.0)
    assert out["clustering.eigh.dim_sum"] == 30
    assert out["metrics.intersection_matrix.calls"] == 2
    assert out["metrics.intersection_matrix.computed"] == 1
    assert out["metrics.intersection_matrix.hit_ratio"] == pytest.approx(0.5)
    assert out["metrics.intersection_matrix.word_popcounts"] == 9
    assert out["generators.sample.calls"] == 2
    assert out["generators.sample.busy_s"] == pytest.approx(1.0)
    assert out["experiments.election.samples"] == 2
    assert out["experiments.election.p50_ms"] == pytest.approx(5000.0)
    assert out["experiments.election.tail_ms"] == out["experiments.election.p50_ms"]
    assert out["trace.overhead_pct"] == pytest.approx(25.0)
    assert out["divpol.transport.calls"] == 0 and out["io.parse_pabulib.mb_per_s"] == 0.0
