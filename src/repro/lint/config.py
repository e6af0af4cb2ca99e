"""What the lint checks: the linted paths and each rule family's scope.

Both are module constants, so every interpreter, the CLI and the test
suite check the same thing. Paths are relative to the repository root
(``--root``). A family's :class:`Scope` restricts where it fires:
``include`` is a list of path prefixes the family applies to (empty =
everywhere) and ``exclude`` a list of prefixes it skips. Scopes are the
one way to exempt code from a family; there are no inline suppression
comments. Phase 1 still
parses every linted file whatever the scopes say, so a scoped-out
module contributes call edges to the project graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["PATHS", "SCOPES", "Scope"]


@dataclass(frozen=True)
class Scope:
    """Path prefixes a rule family applies to (include) and skips (exclude)."""

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        path = relpath.replace("\\", "/")
        if any(_has_prefix(path, prefix) for prefix in self.exclude):
            return False
        if not self.include:
            return True
        return any(_has_prefix(path, prefix) for prefix in self.include)


def _has_prefix(path: str, prefix: str) -> bool:
    prefix = prefix.rstrip("/")
    return path == prefix or path.startswith(prefix + "/")


#: What a run with no explicit paths lints.
PATHS: tuple[str, ...] = ("src", "benchmarks", "scripts")

#: Where each rule family fires. Every registered family has an entry
#: (the engine indexes this map directly). Determinism rules target the
#: model code implementing the paper's equations; harness/CLI layers may
#: look at the clock. The metrics rules skip the registry internals,
#: whose helpers take dynamic names. Library-facing hygiene stays on
#: ``src``: benchmarks and scripts are entrypoint code without a public
#: API. The concurrency family covers every linted path.
SCOPES: Mapping[str, Scope] = {
    "determinism": Scope(include=(
        "src/repro/core", "src/repro/smt", "src/repro/queueing",
        "src/repro/scheduler", "src/repro/serve", "src/repro/adapt",
    )),
    "metrics": Scope(exclude=("src/repro/obs",)),
    "api": Scope(include=("src",)),
    "ports": Scope(),
    "concurrency": Scope(include=PATHS),
}
