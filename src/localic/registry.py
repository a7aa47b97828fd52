"""Registry of all theorem checks, keyed by stable id.

Each check table maps an id to ``(hypotheses, conclusion)``.  The runner
of a registered check alone decides its verdict: ``hypotheses-not-met``
at the first hypothesis that is false on the instance, and otherwise
``pass`` when the conclusion returns None or ``fail`` with the witness
it returns.  The row carries the table key as its id and the instance
itself, which only a failing row written to the report names.
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


def _runner(check_id: str, hypotheses: tuple,
            conclusion: Callable) -> Callable:
    def run(inst) -> CheckResult:
        for holds in hypotheses:
            if not holds(inst):
                return CheckResult(check_id, inst, HYPOTHESES_NOT_MET)
        witness = conclusion(inst)
        return CheckResult(check_id, inst,
                           PASS if witness is None else FAIL, witness)
    return run


def _build_registry() -> dict[str, TheoremCheck]:
    reg: dict[str, TheoremCheck] = {}
    # each table takes its scope from SCOPES, so no check has another scope
    for scope, table in zip(SCOPES, (FRAME_CHECKS, CONTEXT_CHECKS,
                                     SQUARE_CHECKS, CHAIN_CHECKS,
                                     TRIANGLE_CHECKS), strict=True):
        for check_id, (hypotheses, conclusion) in table.items():
            if check_id in reg:
                raise ValueError(f"duplicate check id {check_id}")
            reg[check_id] = TheoremCheck(
                check_id, scope, _runner(check_id, hypotheses, conclusion))
    return reg


REGISTRY: dict[str, TheoremCheck] = _build_registry()


def checks_in_scope(scope: str) -> list[TheoremCheck]:
    return sorted((c for c in REGISTRY.values() if c.scope == scope),
                  key=lambda c: c.id)
