"""Child process of the benchmark: one query client.

  python3 client.py query PLAN.json OUT.json

Sends the plan's queries one after another (a closed loop with one client
and no think time) through ``localic.cli.main``.  OUT.json receives the
per-call latencies, each call's exit code and printed answer, and the peak
resident memory.  ``localic`` must be importable (run.py puts the
checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def capture(argv: list[str]) -> tuple[int, str, float]:
    """Run ``localic.cli.main(argv)`` here; its code, stdout and seconds."""
    from localic import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, buf.getvalue(), seconds


def query_loop(plan: list) -> tuple[list[float], list[int], list[str]]:
    """Each query's latency, exit code and printed answer, one after another."""
    latencies, codes, answers = [], [], []
    for doc, words in plan:
        rc, out, seconds = capture(["query", doc, *words])
        latencies.append(seconds)
        codes.append(rc)
        answers.append(out)
    return latencies, codes, answers


def run_queries(plan_path: str, out_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    started = time.monotonic()
    latencies, codes, answers = query_loop(plan)
    ended = time.monotonic()
    with open(out_path, "w") as fh:
        json.dump({"latencies": latencies, "codes": codes, "answers": answers,
                   "started": started, "ended": ended,
                   "peak_rss_mb": _peak_rss_mb()}, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["query"] and len(argv) == 3:
        return run_queries(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
