"""SMT4xx: export docstrings and __all__ drift."""

from __future__ import annotations

from repro.lint.rules.api import DunderAllDrift, ExportedDocstrings

from .conftest import rule_ids


def test_exported_def_without_docstring_is_flagged(lint):
    findings = lint("""\
        __all__ = ["solve"]

        def solve():
            return 1
    """, rules=[ExportedDocstrings])
    assert rule_ids(findings) == ["SMT401"]
    assert "`solve`" in findings[0].message


def test_documented_exports_pass(lint):
    findings = lint("""\
        __all__ = ["solve", "Model"]

        def solve():
            \"\"\"Solve the model.\"\"\"

        class Model:
            \"\"\"The model.\"\"\"
    """, rules=[ExportedDocstrings])
    assert findings == []


def test_unexported_def_needs_no_docstring(lint):
    findings = lint("""\
        __all__ = []

        def _helper():
            return 1
    """, rules=[ExportedDocstrings])
    assert findings == []


def test_all_naming_an_undefined_symbol_is_flagged(lint):
    findings = lint("""\
        __all__ = ["ghost"]
    """, rules=[DunderAllDrift])
    assert rule_ids(findings) == ["SMT402"]
    assert "`ghost`" in findings[0].message


def test_all_covering_defs_assigns_and_imports_passes(lint):
    findings = lint("""\
        import math
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from pathlib import Path

        __all__ = ["math", "Path", "CONST", "solve"]

        CONST = 3

        def solve():
            \"\"\"Solve.\"\"\"
    """, rules=[DunderAllDrift])
    assert findings == []


def test_dynamic_all_is_flagged(lint):
    findings = lint("""\
        _NAMES = ["a", "b"]
        __all__ = list(_NAMES)
    """, rules=[DunderAllDrift])
    assert rule_ids(findings) == ["SMT402"]


def test_duplicate_all_entry_is_flagged(lint):
    findings = lint("""\
        __all__ = ["solve", "solve"]

        def solve():
            \"\"\"Solve.\"\"\"
    """, rules=[DunderAllDrift])
    assert rule_ids(findings) == ["SMT402"]
    assert "twice" in findings[0].message
