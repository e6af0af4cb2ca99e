"""Lint configuration: defaults plus the ``[tool.smite-lint]`` block.

Configuration lives in ``pyproject.toml`` so the lint CLI and the test
suite agree on what is checked::

    [tool.smite-lint]
    paths = ["src"]
    baseline = ".smite-lint-baseline.json"
    disable = []

    [tool.smite-lint.scopes.determinism]
    include = ["src/repro/core", "src/repro/smt"]

Per-family *scopes* restrict where a rule family fires: ``include`` is a
list of path prefixes the family applies to (empty = everywhere under
the linted paths) and ``exclude`` is a list of prefixes it skips.
``tomllib`` ships with Python 3.11; on older interpreters the loader
degrades to the in-code defaults rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

try:
    import tomllib
except ImportError:  # Python 3.10: run with in-code defaults
    tomllib = None  # type: ignore[assignment]

__all__ = ["LintConfig", "Scope", "load_config", "DEFAULT_SCOPES"]


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


#: Where each rule family fires when the config does not say otherwise.
#: Determinism and numeric rules target the model code implementing the
#: paper's equations; the metrics rule skips the registry internals whose
#: helper methods legitimately take dynamic names.
DEFAULT_SCOPES: Mapping[str, Scope] = {
    "determinism": Scope(include=(
        "src/repro/core", "src/repro/smt",
        "src/repro/queueing", "src/repro/scheduler",
        "src/repro/serve",
    )),
    "metrics": Scope(exclude=("src/repro/obs",)),
    "numeric": Scope(include=(
        "src/repro/core", "src/repro/smt", "src/repro/queueing",
        "src/repro/isa", "src/repro/rulers", "src/repro/analysis",
    )),
    "api": Scope(),
    "ports": Scope(),
    "concurrency": Scope(),
    "procsafety": Scope(),
}


@dataclass(frozen=True)
class LintConfig:
    """Everything the engine needs to know about one lint run."""

    root: Path = Path(".")
    paths: tuple[str, ...] = ("src",)
    baseline_path: str = ".smite-lint-baseline.json"
    cache_path: str = ".smite-lint-cache.json"
    disable: tuple[str, ...] = ()
    scopes: Mapping[str, Scope] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES))

    def scope_for(self, family: str) -> Scope:
        return self.scopes.get(family, Scope())

    def rule_enabled(self, rule_id: str, family: str) -> bool:
        """Disable entries may name a rule id or a whole family."""
        return rule_id not in self.disable and family not in self.disable

    @property
    def baseline_file(self) -> Path:
        return self.root / self.baseline_path

    @property
    def cache_file(self) -> Path:
        return self.root / self.cache_path


def _parse_scope(raw: Mapping[str, Any], fallback: Scope) -> Scope:
    return Scope(
        include=tuple(raw.get("include", fallback.include)),
        exclude=tuple(raw.get("exclude", fallback.exclude)),
    )


def load_config(root: Path | str = ".") -> LintConfig:
    """The config for ``root``, honoring its ``[tool.smite-lint]`` block."""
    root = Path(root).resolve()
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return config
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    raw = data.get("tool", {}).get("smite-lint", {})
    if not raw:
        return config
    scopes = dict(DEFAULT_SCOPES)
    for family, entry in raw.get("scopes", {}).items():
        scopes[family] = _parse_scope(entry, scopes.get(family, Scope()))
    return replace(
        config,
        paths=tuple(raw.get("paths", config.paths)),
        baseline_path=str(raw.get("baseline", config.baseline_path)),
        cache_path=str(raw.get("cache", config.cache_path)),
        disable=tuple(raw.get("disable", ())),
        scopes=scopes,
    )
