"""Verdict rows produced by the theorem checks.  A row holds its instance,
which it names only when it is written out (only failing rows are)."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

PASS = "pass"
HYPOTHESES_NOT_MET = "hypotheses-not-met"
FAIL = "fail"


class CheckResult(NamedTuple):
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
