"""Registry of all theorem checks, keyed by stable id."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .remoteness import CONTEXT_CHECKS, FRAME_CHECKS
from .diagrams import CHAIN_CHECKS, SQUARE_CHECKS, TRIANGLE_CHECKS

SCOPES = ("frame", "context", "square", "chain", "triangle")


class TheoremCheck(NamedTuple):
    id: str
    scope: str
    runner: Callable


def _build_registry() -> dict[str, TheoremCheck]:
    reg: dict[str, TheoremCheck] = {}
    # each table takes its scope from SCOPES, so no check has another scope
    for scope, table in zip(SCOPES, (FRAME_CHECKS, CONTEXT_CHECKS,
                                     SQUARE_CHECKS, CHAIN_CHECKS,
                                     TRIANGLE_CHECKS), strict=True):
        for check_id, fn in table.items():
            if check_id in reg:
                raise ValueError(f"duplicate check id {check_id}")
            reg[check_id] = TheoremCheck(check_id, scope, fn)
    return reg


REGISTRY: dict[str, TheoremCheck] = _build_registry()


def checks_in_scope(scope: str) -> list[TheoremCheck]:
    return sorted((c for c in REGISTRY.values() if c.scope == scope),
                  key=lambda c: c.id)
