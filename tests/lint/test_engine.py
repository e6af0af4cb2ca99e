"""Engine behavior: the registry, scopes, file collection."""

from __future__ import annotations

import textwrap

from repro.lint import (
    LintResult,
    Scope,
    all_rules,
    collect_files,
    lint_sources,
    run,
)
from repro.lint.config import SCOPES
from repro.lint.engine import SYNTAX_ERROR_RULE
from repro.lint.rules.determinism import UnseededRandom

from .conftest import MODEL_PATH


def _lint(source: str, **kwargs):
    return lint_sources({MODEL_PATH: textwrap.dedent(source)},
                        rule_classes=[UnseededRandom], **kwargs)


# ----------------------------------------------------------------------
# Registry sanity

def test_all_eleven_rules_register_with_unique_ids():
    ids = [rule.id for rule in all_rules()]
    assert ids == ["SMT101", "SMT102", "SMT103", "SMT201", "SMT202",
                   "SMT401", "SMT402", "SMT501", "SMT502", "SMT601",
                   "SMT602"]


def test_every_registered_family_has_exactly_one_scope():
    # The engine indexes SCOPES directly: a family without an entry
    # raises instead of silently firing everywhere, and a stale entry
    # for a deleted family is caught here.
    assert set(SCOPES) == {rule.family for rule in all_rules()}


# ----------------------------------------------------------------------
# Exit code and scopes

def test_exit_code_semantics():
    failing = _lint("""\
        import random
        X = random.random()
    """)
    assert LintResult(findings=failing).exit_code == 1
    assert LintResult(findings=[]).exit_code == 0


def test_scope_prefix_matching():
    scope = Scope(include=("src/repro/smt",), exclude=("src/repro/smt/pmu",))
    assert scope.applies_to("src/repro/smt/solver.py")
    assert not scope.applies_to("src/repro/smtx/solver.py")
    assert not scope.applies_to("src/repro/smt/pmu/defects.py")
    assert not scope.applies_to("tests/test_solver.py")


# ----------------------------------------------------------------------
# File collection

def test_collect_files_expands_dedupes_and_sorts(tmp_path):
    (tmp_path / "pkg").mkdir()
    a = tmp_path / "pkg" / "a.py"
    b = tmp_path / "pkg" / "b.py"
    a.write_text("A = 1\n", encoding="utf-8")
    b.write_text("B = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("skip\n", encoding="utf-8")
    files = collect_files([tmp_path / "pkg", a])
    assert files == [a, b]


def test_syntax_error_reports_smt000(tmp_path):
    findings = lint_sources({MODEL_PATH: "def broken(:\n"})
    (finding,) = findings
    assert finding.rule == SYNTAX_ERROR_RULE
    assert "does not parse" in finding.message


# ----------------------------------------------------------------------
# One project-building path for the CLI and the fixtures

_PKG = {
    "src/fix/io.py": """\
        import time

        def slow():
            time.sleep(1)

        async def tick():
            time.sleep(1)
    """,
    "src/fix/api.py": """\
        from fix.io import slow

        async def handler():
            slow()
    """,
}


def test_run_over_files_equals_lint_sources_over_their_text(tmp_path):
    sources = {relpath: textwrap.dedent(body)
               for relpath, body in _PKG.items()}
    for relpath, text in sources.items():
        (tmp_path / relpath).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relpath).write_text(text, encoding="utf-8")

    result = run(tmp_path)
    expected = lint_sources(sources, root=tmp_path)
    assert result.findings == expected
    assert result.files_checked == 2
    chain, direct = [f for f in expected if f.rule == "SMT601"]
    assert (chain.path, direct.path) == ("src/fix/api.py", "src/fix/io.py")
    assert "via `slow` (`time.sleep`)" in chain.message
