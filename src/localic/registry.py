"""Registry of all theorem checks, keyed by stable id, and their rows.

Each check table maps an id to ``(hypotheses, conclusion)``.  The runner
of a registered check alone decides its verdict: ``hypotheses-not-met``
at the first hypothesis that is false on the instance, and otherwise
``pass`` when the conclusion returns None or ``fail`` with the witness
it returns.  The row carries the table key as its id and the instance
itself, which only a failing row written to the report names.
:func:`select` is the one place where a ``--filter`` glob picks checks.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Any, Callable, NamedTuple, Optional

from .remoteness import CONTEXT_CHECKS, FRAME_CHECKS
from .diagrams import CHAIN_CHECKS, SQUARE_CHECKS, TRIANGLE_CHECKS

PASS = "pass"
HYPOTHESES_NOT_MET = "hypotheses-not-met"
FAIL = "fail"

SCOPES = ("frame", "context", "square", "chain", "triangle")


class CheckResult(NamedTuple):
    """A verdict row; it names its instance only when written out."""
    check_id: str
    inst: Any             # the checked instance; it has a subject()
    verdict: str
    witness: Optional[str] = None

    @property
    def subject(self) -> str:
        return self.inst.subject()

    def to_json(self) -> dict:
        out = {"statement_id": self.check_id, "subject": self.subject,
               "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


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


def select(pattern: str) -> list[TheoremCheck]:
    """The checks whose id matches the glob ``pattern``, sorted by id, as
    ``REGISTRY`` holds them at the call."""
    return [REGISTRY[cid] for cid in sorted(REGISTRY) if fnmatch(cid, pattern)]


def checks_in_scope(scope: str) -> list[TheoremCheck]:
    return [c for c in select("*") if c.scope == scope]
