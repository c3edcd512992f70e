"""Report-style validation results keyed by clause labels, and checked mode."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Checked mode, read once: OGACTION_CHECKED=1, or `workbench run --checked`.
CHECKED = os.environ.get("OGACTION_CHECKED") == "1"


def short_cut(name: str, fast, full):
    """A check's answer: `fast`, its short cut's, or full() when fast is None.
    Checked mode runs and returns full(), and raises if a fast answer differs."""
    answer = full() if fast is None or CHECKED else fast
    if fast is not None and answer != fast:
        raise AssertionError(f"short cut {name!r} disagrees with its full check")
    return answer


@dataclass(frozen=True)
class Issue:
    clause: str
    message: str

    def __str__(self):
        return f"[{self.clause}] {self.message}"


@dataclass
class ValidationReport:
    """Violations found while checking a fixed list of clauses.

    `checked` lists every clause label that was evaluated, so a report can
    be rendered as per-clause booleans even when no issue was found.
    """

    subject: str
    checked: tuple[str, ...]
    issues: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, clause: str, message: str) -> None:
        self.issues.append(Issue(clause, message))

    def clause_ok(self, clause: str) -> bool:
        return all(issue.clause != clause for issue in self.issues)

    def clauses(self) -> dict[str, bool]:
        return {label: self.clause_ok(label) for label in self.checked}

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok ({len(self.checked)} clauses)"
        lines = [f"{self.subject}: {len(self.issues)} violation(s)"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)
