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


class KeepsSubject:
    """For an immutable instance: :meth:`subject` formats its report
    subject once, with ``_format_subject``, and keeps it in ``_subject``."""

    __slots__ = ()

    def subject(self) -> str:
        if self._subject is None:
            self._subject = self._format_subject()
        return self._subject
