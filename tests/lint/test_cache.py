"""The phase-2 result cache and the parallel phase-2 path.

The invariant under test: cached, parallel, and cold in-process runs
produce byte-identical findings, and a cache entry survives exactly as
long as nothing it depends on — file bytes, config, framework sources,
or the module's *graph slice* — has changed.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import cache as lint_cache
from repro.lint import load_config, run
from repro.lint.cache import ResultCache

_API = """\
    from fix.mid import helper

    async def handler():
        helper()
"""
_MID = """\
    from fix.io import slow

    def helper():
        slow()
"""
_IO_QUIET = """\
    def slow():
        pass
"""
_IO_BLOCKING = """\
    import time

    def slow():
        time.sleep(1)
"""


def _mini_repo(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "fix"
    pkg.mkdir(parents=True)
    (pkg / "api.py").write_text(textwrap.dedent(_API), encoding="utf-8")
    (pkg / "mid.py").write_text(textwrap.dedent(_MID), encoding="utf-8")
    (pkg / "io.py").write_text(textwrap.dedent(_IO_QUIET),
                               encoding="utf-8")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.smite-lint]\npaths = ["src"]\n', encoding="utf-8")
    return tmp_path


def test_warm_rerun_is_fully_cached(tmp_path):
    config = load_config(_mini_repo(tmp_path))
    cold = run(config)
    assert cold.cache_misses == 3 and cold.cache_hits == 0
    warm = run(config)
    assert warm.cache_hits == 3 and warm.cache_misses == 0
    assert warm.findings == cold.findings == []


def test_far_module_edit_invalidates_dependents(tmp_path):
    root = _mini_repo(tmp_path)
    config = load_config(root)
    assert run(config).findings == []

    # Turning io.slow blocking changes api.py's *graph slice* without
    # touching api.py's bytes: its cached (clean) result must not be
    # served, and the SMT601 chain must surface.
    (root / "src" / "fix" / "io.py").write_text(
        textwrap.dedent(_IO_BLOCKING), encoding="utf-8")
    result = run(config)
    assert [f.rule for f in result.findings] == ["SMT601"]
    assert result.findings[0].path == "src/fix/api.py"

    # And reverting heals without stale cache interference.
    (root / "src" / "fix" / "io.py").write_text(
        textwrap.dedent(_IO_QUIET), encoding="utf-8")
    assert run(config).findings == []


def test_parallel_phase2_matches_serial(tmp_path):
    root = _mini_repo(tmp_path)
    (root / "src" / "fix" / "io.py").write_text(
        textwrap.dedent(_IO_BLOCKING), encoding="utf-8")
    config = load_config(root)
    serial = run(config, use_cache=False, jobs=1)
    parallel = run(config, use_cache=False, jobs=2)
    assert serial.findings == parallel.findings
    assert [f.rule for f in serial.findings] == ["SMT601"]


def test_corrupt_cache_file_means_cold_run(tmp_path):
    root = _mini_repo(tmp_path)
    config = load_config(root)
    run(config)
    config.cache_file.write_text("{not json", encoding="utf-8")
    result = run(config)
    assert result.cache_hits == 0 and result.cache_misses == 3
    assert result.findings == []


def test_cache_prunes_deleted_files(tmp_path):
    root = _mini_repo(tmp_path)
    config = load_config(root)
    run(config)
    (root / "src" / "fix" / "mid.py").unlink()
    (root / "src" / "fix" / "api.py").write_text(
        "async def handler():\n    pass\n", encoding="utf-8")
    run(config)
    cache = ResultCache(config.cache_file)
    assert "src/fix/mid.py" not in cache._entries


def test_catalog_edit_changes_the_ruleset_signature(tmp_path, monkeypatch):
    # SMT2xx reads the metric catalog, so a newly registered metric must
    # invalidate entries that flagged it as undeclared.
    fake = tmp_path / "catalog.py"
    fake.write_text("SPECS = ()\n", encoding="utf-8")
    monkeypatch.setattr(lint_cache, "_EXTRA_SOURCES", (fake,))
    monkeypatch.setattr(lint_cache, "_RULESET_SIG", None)
    before = lint_cache.ruleset_signature()
    fake.write_text("SPECS = ('serve.api.new',)\n", encoding="utf-8")
    monkeypatch.setattr(lint_cache, "_RULESET_SIG", None)
    assert lint_cache.ruleset_signature() != before
