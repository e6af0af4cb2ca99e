"""Shared helpers for the lint-framework tests.

``lint()`` runs :func:`repro.lint.lint_sources` over a source snippet at
a chosen (virtual) repo-relative path — the path matters because rule
families are scoped to path prefixes. Tests select the rules they
exercise so fixture snippets do not need to satisfy every family at
once.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import Finding, lint_sources

#: A path inside the determinism scope.
MODEL_PATH = "src/repro/smt/fixture.py"


@pytest.fixture
def lint():
    def _lint(source: str, *, relpath: str = MODEL_PATH,
              rules=None) -> list[Finding]:
        return lint_sources({relpath: textwrap.dedent(source)},
                            rule_classes=rules)
    return _lint


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]
