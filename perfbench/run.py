"""Benchmark of the approvaldap CLI: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload compass-table --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each round is one CLI call in a fresh worker process (closed loop: the
next round starts when the previous one has ended).  A run makes whole
rounds until the next one would end past ``--seconds`` (at least one),
checks every round's outputs outside the timed phase, and prints one JSON
line: ``correct``, ``attempted`` and ``failed`` elections, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics of one
untraced and one traced round (``--trace 1``).  ``--workload all`` runs
every workload in turn, prints one such line for each, and ends with a
summary line whose metrics are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# pool threads x BLAS threads <= nproc.  One pool thread: on the 2-core
# reference machine two threads contend for the GIL, and the wall time of
# identical calls then spread far more than their CPU time (see README.md)
POOL_THREADS = "1"
BLAS_THREADS = "1"
CALL_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "elections_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["APPROVAL_DAP_THREADS"] = POOL_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def call_cli(argv: list, round_dir: Path, trace: bool) -> dict:
    """One timed CLI call in a worker process; returns its result record."""
    round_dir.mkdir(parents=True)
    result_path = round_dir.parent / f"{round_dir.name}.result.json"
    stdout_path = round_dir.parent / f"{round_dir.name}.stdout.txt"
    trace_path = round_dir.parent / f"{round_dir.name}.spans.jsonl" if trace else "-"
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(result_path), str(stdout_path), str(trace_path), "--", *argv],
        cwd=round_dir,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker failed (exit {done.returncode}):\n{done.stderr[-2000:]}")
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["stdout"] = stdout_path.read_text(encoding="utf-8")
    record["stderr"] = done.stderr
    record["dir"] = round_dir
    if trace:
        record["trace_path"] = trace_path
        with open(trace_path, encoding="utf-8") as spans:
            record["spans"] = [json.loads(line) for line in spans]
    return record


def _outputs(record: dict) -> tuple:
    files = tuple((p.name, p.read_bytes()) for p in sorted(record["dir"].iterdir()) if p.is_file())
    return files, record["stdout"]


def tally(plan, rounds: list, trace: bool) -> tuple:
    """Attempted and failed elections over a run's rounds, and the check messages.

    An election fails at most once per round, so ``failed <= attempted``.
    Rounds with identical outputs, exit code and exception share one check.
    In a traced run, a traced round whose outputs differ from the untraced
    round's fails all its elections.
    """
    failures, errors, verdicts = set(), [], {}
    for i, record in enumerate(rounds):
        key = (_outputs(record), record["code"], record["error"])
        if key not in verdicts:
            verdict = plan.check(record["dir"], record["stdout"], record["code"])
            if record["error"]:
                verdict.fail(range(plan.elections), f"CLI raised: {record['error'].splitlines()[-1]}")
            if verdict.errors and record["stderr"]:
                verdict.errors.append(f"CLI stderr: {record['stderr'][-1000:]}")
            verdicts[key] = verdict
            errors += verdict.errors
        failures |= {(i, e) for e in verdicts[key].failed}
    if trace and _outputs(rounds[0]) != _outputs(rounds[1]):
        failures |= {(1, e) for e in range(plan.elections)}
        errors.append("traced outputs differ from untraced outputs")
    return plan.elections * len(rounds), len(failures), errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer
    from workloads import WORKLOADS

    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        plan = WORKLOADS[name](seed, inputs)
        rounds = []
        if trace:
            rounds.append(call_cli(plan.argv, work / "r0", trace=False))
            rounds.append(call_cli(plan.argv, work / "r1", trace=True))
        else:
            start = time.perf_counter()
            while True:
                rounds.append(call_cli(plan.argv, work / f"r{len(rounds)}", trace=False))
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(rounds) > seconds:
                    break

        attempted, failed, errors = tally(plan, rounds, trace)
        for message in errors:
            print(f"[{name}] check failed: {message}", file=sys.stderr)

        if trace:
            values = tracer.summarize(rounds[1]["spans"], rounds[0]["wall_s"], rounds[1]["wall_s"])
            shutil.copyfile(rounds[1]["trace_path"], WORK / f"{name}.spans.jsonl")
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in tracer.PER_LAYER.items()}
        else:
            walls = [r["wall_s"] for r in rounds]
            values = {
                "setup_s": statistics.median(r["import_s"] for r in rounds),
                "wall_s": statistics.median(walls),
                "elections_per_s": statistics.median(plan.elections / w for w in walls),
                "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        print(
            f"[{name}] seed {seed}: {len(rounds)} round(s), walls "
            + ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
            + " s",
            file=sys.stderr,
        )
        return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "approvaldap" / "cli.py").is_file():
        print(f"error: no approvaldap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            # the other workloads still run; this one reports as failed
            print(f"[{name}] run failed: {exc}", file=sys.stderr)
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        print(json.dumps({"workload": name, **result}))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
