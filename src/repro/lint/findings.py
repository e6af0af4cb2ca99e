"""Finding and severity model for the ``repro.lint`` framework.

A :class:`Finding` is one rule violation at one source location. Findings
are plain values: the engine produces them, inline suppressions mark
them, and the CLI renders them (human text or JSON).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How bad a violation is: advisory (info) or blocking (error)."""

    INFO = "info"
    ERROR = "error"

    def __repr__(self) -> str:
        return f"Severity.{self.name}"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str            # rule id, e.g. "SMT101"
    severity: Severity
    path: str            # repo-relative, forward slashes
    line: int            # 1-based; 0 for whole-file findings
    col: int             # 0-based column offset
    message: str
    source: str = ""     # stripped text of the flagged line ('' if n/a)
    suppressed: bool = field(default=False, compare=False)
    suppress_reason: str = field(default="", compare=False)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        """The one-line human form: location, severity, rule, message."""
        return (f"{self.location}: {self.severity.value} "
                f"[{self.rule}] {self.message}")

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict (the ``--format json`` record shape)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source": self.source,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }
