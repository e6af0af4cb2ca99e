"""Engine behavior: the registry, suppressions, scopes, file collection."""

from __future__ import annotations

import textwrap

from repro.lint import (
    LintResult,
    Scope,
    all_rules,
    collect_files,
    lint_sources,
    parse_suppressions,
    run,
)
from repro.lint.engine import SYNTAX_ERROR_RULE
from repro.lint.rules.numeric import UnguardedDivision

from .conftest import MODEL_PATH


def _lint(source: str, **kwargs):
    return lint_sources({MODEL_PATH: textwrap.dedent(source)},
                        rule_classes=[UnguardedDivision], **kwargs)


# ----------------------------------------------------------------------
# Registry sanity

def test_all_eighteen_rules_register_with_unique_ids():
    ids = [rule.id for rule in all_rules()]
    assert len(ids) == len(set(ids))
    assert {"SMT101", "SMT102", "SMT103", "SMT201", "SMT202", "SMT301",
            "SMT302", "SMT401", "SMT402", "SMT403", "SMT501", "SMT502",
            "SMT601", "SMT602", "SMT603", "SMT701", "SMT702",
            "SMT703"} <= set(ids)
    assert len(ids) == 18


# ----------------------------------------------------------------------
# Suppressions

def test_inline_suppression_with_reason_round_trips():
    findings = _lint("""\
        def f(a, b):
            return a / b  # smite: noqa[SMT302]: b is a validated knob
    """)
    (finding,) = findings
    assert finding.suppressed
    assert finding.suppress_reason == "b is a validated knob"


def test_suppression_for_another_rule_does_not_apply():
    findings = _lint("""\
        def f(a, b):
            return a / b  # smite: noqa[SMT101]: wrong rule
    """)
    (finding,) = findings
    assert not finding.suppressed


def test_wildcard_suppression_covers_every_rule():
    findings = _lint("""\
        def f(a, b):
            return a / b  # smite: noqa[*]: anything goes here
    """)
    assert findings[0].suppressed


def test_multi_rule_suppression_list():
    marks = parse_suppressions(
        "x = 1  # smite: noqa[SMT301, SMT302]: both numeric rules\n")
    (mark,) = marks.values()
    assert mark.covers("SMT301") and mark.covers("SMT302")
    assert not mark.covers("SMT101")


def test_syntax_errors_are_not_suppressible():
    findings = lint_sources(
        {MODEL_PATH: "def broken(  # smite: noqa[*]: nice try\n"})
    (finding,) = findings
    assert finding.rule == SYNTAX_ERROR_RULE
    assert not finding.suppressed


# ----------------------------------------------------------------------
# Exit code and scopes

def test_exit_code_semantics():
    failing = _lint("""\
        def f(a, b):
            return a / b
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
            time.sleep(1)  # smite: noqa[SMT601]: fixture keeps it on purpose
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
    # to_dict carries the suppression fields Finding equality ignores.
    assert [f.to_dict() for f in result.findings] \
        == [f.to_dict() for f in expected]
    assert result.files_checked == 2
    assert [(f.path, f.suppressed) for f in expected
            if f.rule == "SMT601"] == [("src/fix/api.py", False),
                                       ("src/fix/io.py", True)]
    (chain,) = [f for f in expected
                if f.rule == "SMT601" and not f.suppressed]
    assert "via `slow` (`time.sleep`)" in chain.message
