"""Finding records shared by every ``fhecheck`` pass.

A finding is one violated (or suspicious) invariant with enough context
to act on: which pass produced it, which rule fired, where, and the
human-readable bound story.  The CLI serializes findings as JSON so CI
and editor tooling can consume them without scraping text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class Severity(enum.Enum):
    """How bad a finding is: ``ERROR`` findings fail the CI gate."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    source:
        The pass that produced it: ``resource`` (staging-plan replay),
        ``ctstate`` (ciphertext-state walk), or ``lint`` (AST rules).
    rule:
        Stable rule identifier (``R###`` resource rules, ``C###``
        ciphertext-state rules, ``FHC###`` lint rules).
    severity:
        :class:`Severity`; only ``ERROR`` findings are gating.
    location:
        Where: the plan step or op index for the passes, ``"path.py:41"``
        for lint.
    message:
        The violated invariant, with the derived bounds spelled out.
    """

    source: str
    rule: str
    severity: Severity
    location: str
    message: str

    def to_dict(self) -> dict[str, str]:
        """JSON-friendly representation (used by ``--json``)."""
        return {
            "source": self.source,
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (f"[{self.severity.value}] {self.rule} ({self.source}) "
                f"{self.location}: {self.message}")


@dataclass
class FindingList:
    """A mutable collection with convenience constructors for passes."""

    findings: list[Finding] = field(default_factory=list)

    def error(self, source: str, rule: str, location: str,
              message: str) -> None:
        self.findings.append(
            Finding(source, rule, Severity.ERROR, location, message))

    def warning(self, source: str, rule: str, location: str,
                message: str) -> None:
        self.findings.append(
            Finding(source, rule, Severity.WARNING, location, message))

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when no gating (error-severity) finding was recorded."""
        return not self.errors

    def extend(self, other: "FindingList | list[Finding]") -> None:
        if isinstance(other, FindingList):
            self.findings.extend(other.findings)
        else:
            self.findings.extend(other)

    def __iter__(self) -> "Iterator[Finding]":
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)
