"""The benchmark's correctness gate: a run counts only if this passes.

Suite runs: every exit code is 0, the report has no ``fail`` row, the
reports of all ``--jobs`` settings are byte-identical, the corpus has the
pinned number of instances of each scope, and the number of verdict rows
equals those instances times the checks of each scope.

Query runs: every call exits 0, and each answer that has an oracle path
in the library equals that oracle's answer.  The oracle answers are
computed by ``oracle_answers`` before any timing starts.
"""

from __future__ import annotations

import json


# Instances per scope of the posets5 corpus (all posets up to 5 points,
# 15,496 verdict rows).  The corpus does not depend on the seed, so a run
# that builds fewer instances is wrong, not fast.
POSETS5_CORPUS = {"chain": 240, "context": 593, "frame": 79, "square": 400,
                  "triangle": 240}


def suite_problems(reports: list, codes: list[int],
                   checks_per_scope: dict[str, int],
                   corpus: dict[str, int]) -> tuple[list[str], int, int]:
    """Check one workload's suite runs against its pinned ``corpus``.

    Returns the problems found (empty if none), the verdict rows each run
    should print, and the failed rows over all runs: ``fail`` rows, or
    every expected row of a run that crashed or printed no readable report.
    """
    expected = sum(corpus.get(scope, 0) * n
                   for scope, n in checks_per_scope.items())
    problems = [f"suite exited with code {rc}" for rc in codes if rc != 0]
    if any(text != reports[0] for text in reports[1:]):
        problems.append("reports differ between --jobs settings")
    failed = 0
    for text, rc in zip(reports, codes):
        try:
            report = json.loads(text)
            tallies = report["checks"]
            built = report["corpus"]
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"unreadable report: {e!r}")
            failed += expected
            continue
        fails = sum(t.get("fail", 0) for t in tallies.values())
        failed += fails if rc in (0, 1) else expected
        if fails or report.get("failures"):
            problems.append(f"{fails} fail rows")
        if built != corpus:
            problems.append(f"corpus {built}, expected {corpus}")
        rows = sum(sum(t.values()) for t in tallies.values())
        if rows != expected:
            problems.append(f"{rows} verdict rows, expected {expected}")
    return problems, expected, failed


def query_problems(codes: list[int], answers: list[str],
                   expected: list) -> list[str]:
    """Non-zero exits and answers that disagree with the oracle."""
    problems = []
    for i, (rc, out, want) in enumerate(zip(codes, answers, expected)):
        if rc != 0:
            problems.append(f"query {i} exited with code {rc}")
        elif want is not None and json.loads(out) != want:
            problems.append(f"query {i} answered {out.strip()}, "
                            f"oracle says {json.dumps(want)}")
    if len(codes) != len(expected):
        problems.append(f"{len(codes)} answers for {len(expected)} queries")
    return problems


def oracle_answers(paths: dict[str, str], plan: list) -> list:
    """The oracle path's answer to each query, or None where none exists.

    Uses ``remote_set``/``rs``/``star_rs`` with ``oracle=True`` and
    ``nd_join_oracle``; Booleanization and the sublocale count are
    recomputed here from the frame tables by brute force (pseudocomplement
    fixpoints, and 2 to the number of prime elements).
    """
    from localic.jsonio import load_document
    from localic.remoteness import RemoteContext
    from localic.sublocale import (
        booleanization, nd_join_oracle, serialize_sublocale, whole_subl,
    )

    frames = {name: load_document(path) for name, path in paths.items()}
    out = []
    for name, words in plan:
        f = frames[name]
        question = words[0]
        s = None
        if words[1:] == ["S=L"]:
            s = whole_subl(f)
        elif words[1:] == ["S=BL"]:
            s = booleanization(f)
        if question == "booleanization":
            out.append(sorted(f.labels[x] for x in range(f.n)
                              if _pseudo(f, _pseudo(f, x)) == x))
        elif question == "sublocale-count":
            out.append(2 ** sum(_is_prime(f, p) for p in range(f.n)))
        elif question == "remote-set":
            ctx = RemoteContext(f, s)
            out.append(sorted(serialize_sublocale(t)
                              for t in ctx.remote_set(oracle=True)))
        elif question == "rs":
            out.append(serialize_sublocale(RemoteContext(f, s).rs(oracle=True)))
        elif question == "star-rs":
            out.append(serialize_sublocale(
                RemoteContext(f, s).star_rs(oracle=True)))
        elif question == "nd":
            out.append(serialize_sublocale(nd_join_oracle(f, s)))
        else:
            out.append(None)
    return out


def _pseudo(f, x: int) -> int:
    """The largest y with y /\\ x = 0, found by scanning."""
    best = f.bottom
    for y in range(f.n):
        if f.meet_table[x][y] == f.bottom and f.leq(best, y):
            best = y
    return best


def _is_prime(f, p: int) -> bool:
    if p == f.top:
        return False
    return all(f.leq(a, p) or f.leq(b, p)
               for a in range(f.n) for b in range(f.n)
               if f.leq(f.meet_table[a][b], p))
