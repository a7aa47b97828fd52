"""Command line front end: validate documents, run the suite, query frames.

Exit codes: 0 success, 1 at least one theorem check failed, 2 input or
validation error.  Suite reports are byte-deterministic for a given spec,
filter and corpus; wall time is written to stderr only so report files
can be compared directly.  Each suite shard tallies its rows by check and
verdict and writes out, and so names the instance of, only failing rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter
from fnmatch import fnmatch

from .errors import InvalidSublocale, LocalicError
from .frame import FiniteFrame, popcount
from .generators import FAMILIES, GenSpec, build_corpus
from .jsonio import load_document
from .registry import REGISTRY, SCOPES, checks_in_scope
from .remoteness import RemoteContext
from .result import FAIL, HYPOTHESES_NOT_MET, PASS
from .sublocale import (
    Sublocale, booleanization, is_dense_in_itself, is_rare, nd_join,
    serialize_sublocale, whole_subl,
)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shard(args: tuple) -> tuple[Counter, list[dict], dict[str, int]]:
    """Worker: regenerate the corpus and run its slice of the instances;
    return the (check id, verdict) tally, the fail rows and corpus counts."""
    spec, pattern, shard, nshards = args
    corpus = build_corpus(spec)
    counts = {scope: len(items) for scope, items in corpus.items()}
    tally = Counter()
    failures = []
    idx = 0
    for scope in SCOPES:
        checks = [c for c in checks_in_scope(scope) if fnmatch(c.id, pattern)]
        for inst in corpus[scope]:
            if checks and idx % nshards == shard:
                for c in checks:
                    row = c.runner(inst)
                    tally[c.id, row.verdict] += 1
                    if row.verdict == FAIL:
                        failures.append(row.to_json())
            idx += 1
    return tally, failures, counts


def run_suite(spec: GenSpec, pattern: str, jobs: int) -> dict:
    # One worker process per shard, and never more shards than usable CPUs.
    jobs = min(jobs, _usable_cpus())
    if jobs <= 1:
        shards = [_run_shard((spec, pattern, 0, 1))]
    else:
        # imported here: only a forking run should pay for multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        args = [(spec, pattern, k, jobs) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            shards = list(pool.map(_run_shard, args))
    tallies = {cid: {PASS: 0, HYPOTHESES_NOT_MET: 0, FAIL: 0}
               for cid in sorted(c for c in REGISTRY if fnmatch(c, pattern))}
    failures = []
    for tally, fails, _ in shards:
        for (cid, verdict), n in tally.items():
            tallies[cid][verdict] += n
        failures += fails
    failures.sort(key=lambda r: (r["statement_id"], r["subject"],
                                 r["witness"]))
    return {
        "schema": 1,
        "genspec": spec.to_json(),
        "filter": pattern,
        "corpus": shards[0][2],
        "checks": tallies,
        "failures": failures,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Query subcommand
# ---------------------------------------------------------------------------

def _parse_subl(frame: FiniteFrame, token: str) -> Sublocale:
    if token == "L":
        return whole_subl(frame)
    if token == "BL":
        return booleanization(frame)
    if not (token.startswith("{") and token.endswith("}")):
        raise InvalidSublocale(f"S={token}: expected L, BL or {{labels}}")
    inner = token[1:-1]
    labels = inner.split(",") if inner else []
    if "" in labels:
        raise InvalidSublocale(f"empty label in S={token}")
    try:
        members = [frame.index_of(x) for x in labels]
    except KeyError as e:
        raise InvalidSublocale(f"no element labelled {e.args[0]!r}") from None
    return Sublocale.of(frame, members)


def answer_query(frame: FiniteFrame, words: list[str]):
    question, *rest = words
    # these ask about one dense S, given by at most one S=... (default L)
    takes_s = question in ("remote-set", "rs", "star-rs", "nd", "rare?")
    if not takes_s and question not in ("booleanization", "sublocale-count",
                                        "dense-in-itself?"):
        raise LocalicError(f"unknown question {question!r}")
    for w in rest:
        if not w.startswith("S="):
            raise LocalicError(f"unexpected word {w!r}: only S=... may "
                               f"follow the question")
    if rest and not takes_s:
        raise LocalicError(f"{question} takes no S=")
    if len(rest) > 1:
        raise LocalicError("S= given more than once")
    if question == "booleanization":
        return serialize_sublocale(booleanization(frame))
    if question == "sublocale-count":
        # S(L) is the powerset of the points
        return 1 << popcount(frame.points_mask())
    if question == "dense-in-itself?":
        return is_dense_in_itself(frame)
    s = _parse_subl(frame, rest[0][2:]) if rest else whole_subl(frame)
    if question == "remote-set":
        ctx = RemoteContext(frame, s)
        return sorted(serialize_sublocale(t) for t in ctx.remote_set())
    if question == "rs":
        return serialize_sublocale(RemoteContext(frame, s).rs())
    if question == "star-rs":
        return serialize_sublocale(RemoteContext(frame, s).star().rs())
    if question == "nd":
        return serialize_sublocale(nd_join(frame, s))
    return is_rare(frame, s)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parse_args returns a fresh
    # namespace each time, so one parser serves every call of main.
    p = argparse.ArgumentParser(
        prog="localic",
        description="finite-locale computations and theorem suite")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a JSON document")
    v.add_argument("file")

    s = sub.add_parser("suite", help="run the theorem suite over a corpus")
    s.add_argument("--family", required=True, choices=FAMILIES)
    s.add_argument("--max-size", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=0,
                   help="instances for the random families")
    s.add_argument("--filter", default="*", help="check-id glob")
    s.add_argument("--jobs", type=int, default=0,
                   help="parallel workers (default: usable CPUs)")
    s.add_argument("--out", help="also write the report to this file")

    q = sub.add_parser("query", help="ask a question about a frame document")
    q.add_argument("file")
    q.add_argument("question", nargs="+")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        try:
            obj = load_document(args.file)
        except LocalicError as e:
            print(f"invalid: {type(e).__name__}: {e}", file=sys.stderr)
            return 2
        print(f"ok: {type(obj).__name__}")
        return 0

    if args.command == "suite":
        try:
            spec = GenSpec(args.family, args.max_size, args.seed, args.count)
            if args.jobs < 0:
                raise ValueError(f"--jobs must be at least 0, got {args.jobs}")
            if not any(fnmatch(c, args.filter) for c in REGISTRY):
                raise ValueError(f"--filter {args.filter!r} matches no check")
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
        jobs = args.jobs or _usable_cpus()
        started = time.monotonic()
        report = run_suite(spec, args.filter, jobs)
        elapsed = time.monotonic() - started
        text = render_report(report)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                print(f"cannot write {args.out}: {e.strerror}",
                      file=sys.stderr)
                return 2
        sys.stdout.write(text)
        print(f"wall-time: {elapsed:.2f}s", file=sys.stderr)
        fails = sum(t[FAIL] for t in report["checks"].values())
        return 1 if fails else 0

    # query
    try:
        obj = load_document(args.file)
        if not isinstance(obj, FiniteFrame):
            raise LocalicError("query expects a frame document")
        answer = answer_query(obj, args.question)
    except LocalicError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(answer, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
