"""Command line front end: validate documents, run the suite, query frames.

Exit codes: 0 success, 1 at least one theorem check failed, 2 input or
validation error.  The arguments are parsed by hand: a usage error is
one line on stderr and exit 2, and ``-h``/``--help`` prints ``_USAGE``
and exits 0.  Suite options take their value as ``--opt VALUE`` or
``--opt=VALUE``, spelled out in full; each is given at most once, and
an empty value is a missing one.

Each command imports only what it runs: ``validate`` and ``query`` of a
frame load the frame, sublocale, remoteness and jsonio modules; a map,
square or chain document adds ``locmap`` or ``diagrams``; only ``suite``
loads ``generators`` and ``registry``.

Suite reports are byte-deterministic for a given spec, filter and corpus;
wall time is written to stderr only so report files can be compared
directly.  ``suite`` builds its corpus once.  ``--jobs 1`` runs it as one
shard in-process; a higher count forks one worker per shard, which
inherits the corpus and starts on a CPU of its own.  Each shard tallies
its rows by check and verdict and writes out, and so names the instance
of, only failing rows.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import InvalidSublocale, LocalicError
from .frame import FiniteFrame, popcount
from .jsonio import load_document
from .remoteness import dense_context
from .sublocale import (
    Sublocale, booleanization, is_dense_in_itself, is_rare, nd_join, whole_subl,
)

if TYPE_CHECKING:
    from .generators import GenSpec


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_corpus(spec: GenSpec) -> dict[str, list]:
    """The suite corpus of ``spec``: :func:`localic.generators.build_corpus`,
    imported on the first call so that no other command loads it."""
    from .generators import build_corpus
    return build_corpus(spec)


def _run_shard(args: tuple) -> tuple[Counter, list[dict]]:
    """Worker: run the checks on one slice of the corpus, every
    ``nshards``-th instance from the ``shard``-th on; return the
    (check id, verdict) tally and the fail rows."""
    from .registry import FAIL, SCOPES, select
    corpus, pattern, shard, nshards = args
    selected = select(pattern)
    tally = Counter()
    failures = []
    idx = 0
    for scope in SCOPES:
        checks = [c for c in selected if c.scope == scope]
        for inst in corpus[scope]:
            if checks and idx % nshards == shard:
                for c in checks:
                    row = c.runner(inst)
                    tally[c.id, row.verdict] += 1
                    if row.verdict == FAIL:
                        failures.append(row.to_json())
            idx += 1
    return tally, failures


def _start_on_own_cpu(k: int) -> None:
    """Move this forked worker to the k-th, in order, of the CPUs that it
    may run on, then give it back all of them.  A forked child starts on
    its parent's CPU, and the kernel is slow to move it off, so two
    workers can share one CPU for their whole life; once placed, a worker
    stays put, but the kernel may still move it.  A CPU that cannot be
    used is skipped."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {sorted(allowed)[k]})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _fork_shards(shards: list[tuple]) -> list[tuple[Counter, list[dict]]]:
    """``_run_shard`` of each of ``shards`` in a forked worker of its own,
    started on a CPU of its own; the results, in order.

    A worker inherits the corpus from this process, so nothing is pickled
    going in; it pickles back its result, or the exception that it raised,
    through a pipe.  Every worker is reaped before anything is raised: the
    first failing shard's exception as its worker raised it, or, for a
    worker that sent no result, a ``RuntimeError`` naming the shard.  The
    suite starts no threads, so forking is safe.
    """
    import pickle
    pids, pipes = [], []
    try:
        for k, args in enumerate(shards):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _shard_worker(k, args, pipes, w)
            finally:
                os.close(w)
            pids.append(pid)
        sent = []
        for r in pipes:
            with open(r, "rb", closefd=False) as fh:
                sent.append(fh.read())
    finally:
        for r in pipes:
            os.close(r)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results = []
    for k, (data, status) in enumerate(zip(sent, statuses)):
        if not data:
            # a negative exit code is the signal that ended the worker
            raise RuntimeError(
                f"suite shard {k} of {len(shards)} sent no result: its "
                f"worker's exit code was {os.waitstatus_to_exitcode(status)}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _shard_worker(k: int, args: tuple, pipes: list[int], w: int) -> None:
    """The forked worker of shard ``k``: run it, write the pickled outcome
    to ``w`` and exit, never returning into the parent's code."""
    import pickle
    status = 1
    try:
        # holding a read end, a worker whose parent stopped reading would
        # wait on a full pipe for ever, where it should fail to write
        for r in pipes:
            os.close(r)
        _start_on_own_cpu(k)
        try:
            # through the module global, which a tracer may wrap
            result = True, _run_shard(args)
        except BaseException as e:  # raised again by the parent
            result = False, e
        data = pickle.dumps(result)
        with open(w, "wb", closefd=False) as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def run_suite(spec: GenSpec, pattern: str, jobs: int) -> dict:
    from .registry import FAIL, HYPOTHESES_NOT_MET, PASS, select
    # One worker process per shard, never more shards than usable CPUs,
    # and no workers where the platform cannot fork.
    jobs = min(jobs, _usable_cpus()) if hasattr(os, "fork") else 1
    corpus = build_corpus(spec)
    args = [(corpus, pattern, k, jobs) for k in range(jobs)]
    shards = _fork_shards(args) if jobs > 1 else [_run_shard(args[0])]
    tallies = {c.id: {PASS: 0, HYPOTHESES_NOT_MET: 0, FAIL: 0}
               for c in select(pattern)}
    failures = []
    for tally, fails in shards:
        for (cid, verdict), n in tally.items():
            tallies[cid][verdict] += n
        failures += fails
    failures.sort(key=lambda r: (r["statement_id"], r["subject"],
                                 r["witness"]))
    return {
        "schema": 1,
        "genspec": spec.to_json(),
        "filter": pattern,
        "corpus": {scope: len(items) for scope, items in corpus.items()},
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
        return booleanization(frame).labels()
    if question == "sublocale-count":
        # S(L) is the powerset of the points
        return 1 << popcount(frame.points_mask())
    if question == "dense-in-itself?":
        return is_dense_in_itself(frame)
    s = _parse_subl(frame, rest[0][2:]) if rest else whole_subl(frame)
    if question == "remote-set":
        return sorted(t.labels() for t in dense_context(frame, s).remote_set())
    if question == "rs":
        return dense_context(frame, s).rs().labels()
    if question == "star-rs":
        return dense_context(frame, s).star().rs().labels()
    if question == "nd":
        return nd_join(frame, s).labels()
    return is_rare(frame, s)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

_USAGE = """\
usage: localic validate FILE
       localic query FILE QUESTION [S=L | S=BL | S={labels}]
       localic suite --family FAMILY --max-size N [--seed N] [--count N]
                     [--filter GLOB] [--jobs N] [--out FILE]

validate  check a frame, map, square or chain document
query     ask about a frame document: booleanization, sublocale-count,
          dense-in-itself?, or, of one dense S (default S=L), remote-set,
          rs, star-rs, nd, rare?
suite     run the theorem suite over a generated corpus; FAMILY is one of
          all-posets-up-to, random-poset, chain, boolean-algebra; --count
          is for random-poset, --filter a check-id glob, --jobs 0 (the
          default) the usable CPUs, and --out a file that also receives
          the report

An option takes its value as --opt VALUE or --opt=VALUE, and is given
at most once.
"""

# suite option -> (field of the parsed namespace, value type)
_SUITE_OPTIONS = {
    "--family": ("family", str), "--max-size": ("max_size", int),
    "--seed": ("seed", int), "--count": ("count", int),
    "--filter": ("filter", str), "--jobs": ("jobs", int),
    "--out": ("out", str),
}
_SUITE_DEFAULTS = {"seed": 0, "count": 0, "filter": "*", "jobs": 0,
                   "out": None}


class _UsageError(Exception):
    """argv that names no command, or a command with the wrong words."""


def _parse_suite(words: list[str]) -> SimpleNamespace:
    given = {}
    words = iter(words)
    for word in words:
        name, eq, value = word.partition("=")
        if name not in _SUITE_OPTIONS:
            raise _UsageError(f"unknown suite option {name!r}")
        field, kind = _SUITE_OPTIONS[name]
        if field in given:
            raise _UsageError(f"{name} given more than once")
        if not eq:
            value = next(words, "")
            if value.startswith("--"):  # the next option, not a value
                value = ""
        if not value:
            raise _UsageError(f"{name} needs a value")
        try:
            given[field] = kind(value)
        except ValueError:
            raise _UsageError(f"{name} takes an integer, got {value!r}") \
                from None
    opts = {**_SUITE_DEFAULTS, **given}
    missing = [name for name, (field, _) in _SUITE_OPTIONS.items()
               if field not in opts]
    if missing:
        raise _UsageError(f"suite needs {' and '.join(missing)}")
    return SimpleNamespace(command="suite", **opts)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its fields: ``file`` and ``question``, or the suite
    options, each under its name without ``--`` and with ``_`` for ``-``."""
    if not argv:
        raise _UsageError("no command given")
    command, *rest = argv
    if command == "suite":
        return _parse_suite(rest)
    if command == "validate":
        if len(rest) != 1:
            raise _UsageError(f"validate takes one FILE, got {len(rest)}")
        return SimpleNamespace(command=command, file=rest[0])
    if command == "query":
        if len(rest) < 2:
            raise _UsageError("query takes a FILE and a question")
        return SimpleNamespace(command=command, file=rest[0],
                               question=rest[1:])
    raise _UsageError(f"unknown command {command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        return 0
    try:
        args = _parse_args(argv)
    except _UsageError as e:
        print(f"localic: {e} (localic --help shows the usage)",
              file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            obj = load_document(args.file)
        except LocalicError as e:
            print(f"invalid: {type(e).__name__}: {e}", file=sys.stderr)
            return 2
        print(f"ok: {type(obj).__name__}")
        return 0

    if args.command == "suite":
        from .generators import GenSpec
        from .registry import FAIL, select
        try:
            spec = GenSpec(args.family, args.max_size, args.seed, args.count)
            if args.jobs < 0:
                raise ValueError(f"--jobs must be at least 0, got {args.jobs}")
            if not select(args.filter):
                raise ValueError(f"--filter {args.filter!r} matches no check")
            # refuse --out now where the write at the end would fail
            out = args.out
            if out and os.path.isdir(out):
                raise ValueError(f"cannot write {out}: it is a directory")
            if out and not os.path.isdir(os.path.dirname(out) or "."):
                raise ValueError(f"cannot write {out}: no such directory")
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
