"""The ``python -m repro.lint`` CLI, plus the tree-wide smoke gate.

``test_tree_lints_clean`` is the CI gate the framework exists for: the
repository's own source must lint clean (exit 0) on every test run,
exactly as ``scripts/lint.py`` and the bench-regression preflight
enforce it.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import main

REPO = Path(__file__).resolve().parents[2]


#: Inside the determinism family's scope, so SMT101 fires there.
MODULE = "src/repro/smt/mod.py"


def _mini_repo(tmp_path: Path, body: str) -> Path:
    module = tmp_path / MODULE
    module.parent.mkdir(parents=True)
    module.write_text(textwrap.dedent(body), encoding="utf-8")
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    _mini_repo(tmp_path, "X = 1\n")
    assert main(["--root", str(tmp_path)]) == 0
    assert "OK: 0 new violation(s)" in capsys.readouterr().out


def test_violation_fails_and_is_rendered(tmp_path, capsys):
    _mini_repo(tmp_path, """\
        import random
        X = random.random()
    """)
    assert main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "SMT101" in out
    assert "FAIL: 1 new violation(s)" in out


def test_json_format_is_machine_readable(tmp_path, capsys):
    _mini_repo(tmp_path, """\
        import random
        X = random.random()
    """)
    assert main(["--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "SMT101"
    assert finding["path"] == MODULE


def test_list_rules_prints_the_reference(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SMT101", "SMT501", "SMT601"):
        assert rule_id in out


def test_missing_path_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["--root", str(tmp_path), str(tmp_path / "nope.py")])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# The repository's own source

def test_tree_lints_clean():
    # No explicit paths: lint src, benchmarks and scripts with all rule
    # families, including the cross-module SMT6xx one.
    assert main(["--root", str(REPO)]) == 0


def test_json_report_counts_the_files_checked(tmp_path, capsys):
    _mini_repo(tmp_path, "X = 1\n")
    assert main(["--root", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "files_checked": 1, "exit_code": 0}
