"""The finding model of the ``repro.lint`` framework.

A :class:`Finding` is one rule violation at one source location. Findings
are plain values: the engine produces them and the CLI renders them
(human text or JSON). Every finding fails the run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str            # rule id, e.g. "SMT101"
    path: str            # repo-relative, forward slashes
    line: int            # 1-based; 0 for whole-file findings
    col: int             # 0-based column offset
    message: str
    source: str = ""     # stripped text of the flagged line ('' if n/a)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        """The one-line human form: location, rule, message."""
        return f"{self.location}: error [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict (the ``--format json`` record shape)."""
        return asdict(self)
