"""Verdict rows produced by the theorem checks."""

from __future__ import annotations

from typing import NamedTuple, Optional

PASS = "pass"
HYPOTHESES_NOT_MET = "hypotheses-not-met"
FAIL = "fail"


class CheckResult(NamedTuple):
    check_id: str
    subject: str          # human-readable instance description
    verdict: str
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"statement_id": self.check_id, "subject": self.subject,
               "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        return out
