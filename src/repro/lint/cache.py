"""Content-hash result cache for phase 2 of the lint engine.

A two-phase run still has to parse and scan every file (phase 1 is what
the cross-module rules exist for), but phase 2 — executing every rule
over every module — dominates the wall time. This cache memoizes phase-2
output per file, keyed by everything that can change it:

- the file's own bytes,
- the lint framework itself (a digest of the ``repro.lint`` package
  sources, so editing a rule invalidates every entry, and of the metric
  catalog SMT2xx checks names against, so registering a metric does
  too),
- the effective configuration (paths, disables, per-family scopes),
- the module's *graph slice* (:meth:`ProjectGraph.module_signature`) —
  the taints, resolved callees, and blocking chains phase 2 consults,
  so an edit two modules away that changes what this module's coroutine
  reaches invalidates this module's entry even though its bytes did not
  move.

The cache file lives next to the baseline (``.smite-lint-cache.json``)
and is safe to delete at any time; a missing or corrupt cache simply
means a cold run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.lint.findings import Finding
from repro.obs import catalog

__all__ = ["ResultCache", "ruleset_signature"]

_FORMAT_VERSION = 1

_RULESET_SIG: str | None = None

#: Sources outside ``repro.lint`` whose content changes findings.
_EXTRA_SOURCES = (Path(catalog.__file__),)


def ruleset_signature() -> str:
    """Digest of the lint framework's own sources (memoized per process)."""
    global _RULESET_SIG
    if _RULESET_SIG is None:
        digest = hashlib.sha256()
        package_dir = Path(__file__).resolve().parent
        for path in (*sorted(package_dir.rglob("*.py")), *_EXTRA_SOURCES):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _RULESET_SIG = digest.hexdigest()
    return _RULESET_SIG


class ResultCache:
    """Per-file phase-2 findings, keyed by a combined content hash."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if not self.path.is_file():
            return
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # corrupt cache == cold cache
        if data.get("version") != _FORMAT_VERSION:
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    @staticmethod
    def key_for(source: str, config_sig: str, graph_sig: str) -> str:
        digest = hashlib.sha256()
        digest.update(source.encode("utf-8", errors="replace"))
        digest.update(b"\x00")
        digest.update(ruleset_signature().encode())
        digest.update(b"\x00")
        digest.update(config_sig.encode())
        digest.update(b"\x00")
        digest.update(graph_sig.encode())
        return digest.hexdigest()

    def get(self, relpath: str, key: str) -> list[Finding] | None:
        entry = self._entries.get(relpath)
        if entry is None or entry.get("key") != key:
            self.misses += 1
            return None
        self.hits += 1
        try:
            return [Finding.from_dict(f) for f in entry["findings"]]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            self.hits -= 1
            return None

    def put(self, relpath: str, key: str,
            findings: list[Finding]) -> None:
        self._entries[relpath] = {
            "key": key,
            "findings": [f.to_dict() for f in findings],
        }
        self._dirty = True

    def prune(self, live_relpaths: set[str]) -> None:
        """Drop entries for files no longer part of the run."""
        dead = [p for p in self._entries if p not in live_relpaths]
        for path in dead:
            del self._entries[path]
            self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {"version": _FORMAT_VERSION, "entries": self._entries}
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True) + "\n",
                encoding="utf-8")
        except OSError:
            pass  # a read-only tree just runs cold next time
        self._dirty = False
