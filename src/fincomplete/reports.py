"""Verdict-and-witness containers returned by every decision procedure.

A failed check always carries a witness that can be re-checked without
trusting the procedure that produced it: a nonzero function with vanishing
expectations for incompleteness, a (point, block, parameter pair) for
insufficiency, and so on.  Witnesses are stored as small mappings with
semantic keys; serialization lives in :mod:`fincomplete.serialization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_VACUOUS = "vacuous"

STATUS_VERIFIED = "verified"
STATUS_CONCLUSION_FAILS = "conclusion-fails-with-hypothesis-gap"
STATUS_HYPOTHESIS_UNMET = "hypothesis-unmet"
# Defensive: a failing conclusion with every hypothesis passing would
# contradict a proved theorem; it is reported rather than silently
# misfiled, and producing it fails the test suite.
STATUS_THEOREM_VIOLATED = "theorem-violated"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one decision procedure.

    ``witness`` is None on a pass (except where a pass is certified by an
    object, e.g. the canonical complete sufficient partition) and on a fail
    holds the re-checkable certificate.
    """

    property: str
    verdict: str
    witness: Mapping[str, Any] | None = None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS

    @property
    def failed(self) -> bool:
        return self.verdict == VERDICT_FAIL

    def with_notes(self, *extra: str) -> "CheckReport":
        return CheckReport(self.property, self.verdict, self.witness, self.notes + extra)


def combine_reports(name: str, *parts: CheckReport) -> CheckReport:
    """Conjunction of several checks: passes when all pass, and carries the
    first failing witness plus one note per constituent verdict."""
    notes = tuple(f"{p.property}: {p.verdict}" for p in parts)
    for p in parts:
        if p.failed:
            return CheckReport(name, VERDICT_FAIL, p.witness, notes + p.notes)
    return CheckReport(name, VERDICT_PASS, None, notes)


@dataclass(frozen=True)
class TheoremReport:
    """An executable theorem instance: every hypothesis is evaluated (no
    short-circuiting, so reports localize every gap) and then the
    conclusion.  Only the hunt's predicate, which needs no report, stops
    at the first failing hypothesis."""

    theorem: str
    hypothesis_results: tuple[tuple[str, CheckReport], ...]
    conclusion_result: CheckReport
    status: str = field(init=False)

    def __post_init__(self):
        gap = any(r.failed for _, r in self.hypothesis_results)
        if self.conclusion_result.passed:
            status = STATUS_HYPOTHESIS_UNMET if gap else STATUS_VERIFIED
        else:
            status = STATUS_CONCLUSION_FAILS if gap else STATUS_THEOREM_VIOLATED
        object.__setattr__(self, "status", status)

    @property
    def verified(self) -> bool:
        return self.status == STATUS_VERIFIED

    def failed_hypotheses(self) -> tuple[str, ...]:
        return tuple(label for label, r in self.hypothesis_results if r.failed)
