"""One CLI call in a fresh process, timed as a user would see it.

Usage: python3 perfbench/worker.py RESULT.json STDOUT.txt TRACE.jsonl|- -- CLI ARGS...

Times the import of ``approvaldap.cli``, optionally installs the span
wrappers, then times ``approvaldap.cli.main(args)`` with standard output
sent to STDOUT.txt.  RESULT.json receives the import time, the exit code,
any exception, the wall and CPU time of the call and the process's peak
resident memory.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, stdout_path, trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: worker.py RESULT STDOUT TRACE|- -- CLI ARGS...")
    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.Recorder()

    start = time.perf_counter()
    import approvaldap.cli as cli

    import_s = time.perf_counter() - start

    if recorder is not None:
        tracer.install(recorder)

    error = None
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        try:
            code = cli.main(cli_args)
        except Exception:  # a crash of the program is a failed operation, not ours
            error = traceback.format_exc()
            code = -1
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    if recorder is not None:
        recorder.write_jsonl(trace_path)
    if error:
        print(error, file=sys.stderr)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    Path(result_path).write_text(
        json.dumps(
            {
                "import_s": import_s,
                "code": code,
                "error": error,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # Linux reports KiB
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
