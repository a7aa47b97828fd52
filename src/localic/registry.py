"""Registry of all theorem checks, keyed by stable id.

A check function returns None when its statement holds,
HYPOTHESES_NOT_MET when its hypotheses fail, and its witness string when
it fails.  Each registered runner turns that into the report row, with
the table key as its id and ``inst.subject()`` as its subject.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .remoteness import CONTEXT_CHECKS, FRAME_CHECKS
from .diagrams import CHAIN_CHECKS, SQUARE_CHECKS, TRIANGLE_CHECKS
from .result import CheckResult, FAIL, HYPOTHESES_NOT_MET, PASS

SCOPES = ("frame", "context", "square", "chain", "triangle")


class TheoremCheck(NamedTuple):
    id: str
    scope: str
    runner: Callable


def _runner(check_id: str, check: Callable) -> Callable:
    def run(inst) -> CheckResult:
        out = check(inst)
        if out is None:
            return CheckResult(check_id, inst.subject(), PASS)
        if out == HYPOTHESES_NOT_MET:
            return CheckResult(check_id, inst.subject(), HYPOTHESES_NOT_MET)
        return CheckResult(check_id, inst.subject(), FAIL, out)
    return run


def _build_registry() -> dict[str, TheoremCheck]:
    reg: dict[str, TheoremCheck] = {}
    # each table takes its scope from SCOPES, so no check has another scope
    for scope, table in zip(SCOPES, (FRAME_CHECKS, CONTEXT_CHECKS,
                                     SQUARE_CHECKS, CHAIN_CHECKS,
                                     TRIANGLE_CHECKS), strict=True):
        for check_id, fn in table.items():
            if check_id in reg:
                raise ValueError(f"duplicate check id {check_id}")
            reg[check_id] = TheoremCheck(check_id, scope,
                                         _runner(check_id, fn))
    return reg


REGISTRY: dict[str, TheoremCheck] = _build_registry()


def checks_in_scope(scope: str) -> list[TheoremCheck]:
    return sorted((c for c in REGISTRY.values() if c.scope == scope),
                  key=lambda c: c.id)
