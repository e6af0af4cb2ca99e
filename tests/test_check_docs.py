"""The docs checker: snippet policy, link checking, and the real docs.

Running this in the suite wires ``scripts/check_docs.py`` into tier-1:
the repository's own README/docs snippets must execute and its relative
links must resolve on every test run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO / "scripts" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
sys.modules["check_docs"] = check_docs
_spec.loader.exec_module(check_docs)


# ----------------------------------------------------------------------
# Snippet extraction and policy

def _snippets_of(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return check_docs.extract_snippets(doc)


def test_python_blocks_run_by_default(tmp_path):
    (snippet,) = _snippets_of(tmp_path, "```python\nprint('hi')\n```\n")
    assert snippet.lang == "python"
    assert snippet.should_run


def test_skip_marker_exempts_a_block(tmp_path):
    (snippet,) = _snippets_of(
        tmp_path,
        "<!-- check-docs: skip -->\n```python\n1/0\n```\n",
    )
    assert not snippet.should_run


def test_bash_blocks_need_an_explicit_opt_in(tmp_path):
    silent, opted_in = _snippets_of(
        tmp_path,
        "```bash\nrm -rf /important\n```\n"
        "\n<!-- check-docs: run -->\n```bash\ntrue\n```\n",
    )
    assert not silent.should_run
    assert opted_in.should_run


def test_untagged_and_data_blocks_never_run(tmp_path):
    snippets = _snippets_of(
        tmp_path,
        "```\nplain diagram\n```\n\n```json\n{\"k\": 1}\n```\n",
    )
    assert all(not snippet.should_run for snippet in snippets)


def test_failing_snippet_is_reported(tmp_path):
    (snippet,) = _snippets_of(
        tmp_path, "```python\nraise SystemExit(3)\n```\n")
    error = check_docs.run_snippet(snippet, tmp_path)
    assert error is not None
    assert "exited 3" in error


def test_passing_snippet_reports_nothing(tmp_path):
    (snippet,) = _snippets_of(tmp_path, "```python\nprint('ok')\n```\n")
    assert check_docs.run_snippet(snippet, tmp_path) is None


def test_snippets_can_import_the_package(tmp_path):
    (snippet,) = _snippets_of(
        tmp_path, "```python\nimport repro\n```\n")
    assert check_docs.run_snippet(snippet, tmp_path) is None


# ----------------------------------------------------------------------
# Link checking

def test_dead_relative_link_is_caught(tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "see [the guide](docs/NOPE.md) and [ok](docs/REAL.md) and "
        "[web](https://example.com) and [anchor](#section)\n",
        encoding="utf-8",
    )
    (tmp_path / "docs" / "REAL.md").write_text("hi\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ("README.md",))
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ())
    errors = check_docs.check_links()
    assert len(errors) == 1
    assert "docs/NOPE.md" in errors[0]


def test_anchored_link_to_existing_file_resolves(tmp_path, monkeypatch):
    (tmp_path / "README.md").write_text(
        "[sec](OTHER.md#some-heading)\n", encoding="utf-8")
    (tmp_path / "OTHER.md").write_text("# Some heading\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ("README.md",))
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ())
    assert check_docs.check_links() == []


def test_inline_paths_pick_repo_paths_and_skip_globs():
    line = ("run `python scripts/check_docs.py --links-only`, see "
            "`tests/serve/test_engine.py::TestShardFailure`, "
            "`DESIGN.md:79`, `src/repro/smt/{solver,batch}.py`, "
            "`docs/*.md`, `BENCHMARK.json`, `--json out.json` and "
            "`repro/serve/engine.py`")
    assert check_docs.inline_paths(line) == [
        "scripts/check_docs.py",
        "tests/serve/test_engine.py",
        "BENCHMARK.json",
    ]


def test_dead_inline_path_is_caught(tmp_path, monkeypatch):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "real.py").write_text("", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "run `python scripts/real.py` and `scripts/gone.py`, then read "
        "`BASELINE.json`\n"
        "```bash\npython scripts/fenced_example.py\n```\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ("README.md",))
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ())
    assert check_docs.check_inline_paths() == [
        "README.md:1: dead repository path -> scripts/gone.py",
        "README.md:1: dead repository path -> BASELINE.json",
    ]


def test_gitignored_names_are_generated_not_dead(tmp_path, monkeypatch):
    (tmp_path / ".gitignore").write_text(
        "# run output\n.smite-lint-cache.json\n.bench_build/\n",
        encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "the lint cache `.smite-lint-cache.json`, the build tree "
        "`benchmarks/.bench_build/run.log`, and the deleted baseline "
        "`BENCH_solver.json`\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", ("README.md",))
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ())
    assert check_docs.check_inline_paths() == [
        "README.md:1: dead repository path -> BENCH_solver.json",
    ]


# ----------------------------------------------------------------------
# Lint-rule reference coverage

def test_rule_row_regex_matches_tables_not_code_fences():
    text = (
        "| SMT101 | error | something |\n"
        "```python\n"
        "    id = \"SMT901\"\n"
        "```\n"
        "prose mentioning SMT302 without a table row\n"
    )
    assert check_docs._RULE_ROW.findall(text) == ["SMT101"]


def test_repo_rule_reference_is_two_way_complete():
    assert check_docs.check_rule_coverage() == []


# ----------------------------------------------------------------------
# Alert-rule reference coverage

def test_alert_row_regex_matches_tables_not_prose():
    text = (
        "| `serve.alert.slo_burn_rate` | violation_rate | pages |\n"
        "prose naming `serve.alert.shed_rate` without a table row\n"
        "| `serve.slo.windows` | not an alert |\n"
    )
    assert check_docs._ALERT_ROW.findall(text) == [
        "serve.alert.slo_burn_rate"
    ]


def test_repo_alert_reference_is_two_way_complete():
    assert check_docs.check_alert_rule_coverage() == []


# ----------------------------------------------------------------------
# README flag tables vs the parsers they name

_FLAG_TABLES = """\
| Flag (runner) | Environment variable | Default | Meaning |
|---|---|---|---|
| `--fast` | — | off | CI-sized. |
| — | `SMITE_NO_CACHE=1` | off | No flag in this row. |

| Flag (`repro.cli serve`) | Default | Meaning |
|---|---|---|
| `--policy {smite,random,baseline}` | `smite` | Policy. |
| `--engine {vector,scalar}` | `vector` | A removed flag. |

| Flag (`repro.cli serve-api`) | Default | Meaning |
|---|---|---|
| `--host ADDR` | `127.0.0.1` | Interface. |
"""


def test_flag_tables_read_first_columns_only():
    tables = check_docs.flag_tables(_FLAG_TABLES)
    assert tables == {
        "runner": {"--fast"},
        "repro.cli serve": {"--policy", "--engine"},
        "repro.cli serve-api": {"--host"},
    }


def test_stale_and_missing_flag_rows_are_reported():
    errors = check_docs.check_flag_tables(_FLAG_TABLES)
    assert ("flag tables: README's repro.cli serve table documents "
            "'--engine', which that parser does not have") in errors
    # The shared runner row covers --fast; --seed has no row anywhere.
    assert ("flag tables: repro.cli serve option '--seed' has no row in "
            "its README table or the runner table") in errors
    assert ("flag tables: runner option '--list' has no row in its "
            "README table or the runner table") in errors
    documented = ("'--fast'", "repro.cli serve option '--policy'",
                  "repro.cli serve-api option '--host'")
    assert not any(row in error for error in errors for row in documented)


def test_a_missing_flag_table_is_reported():
    errors = check_docs.check_flag_tables(
        _FLAG_TABLES.split("\n\n")[0] + "\n")
    assert ("flag tables: README has no 'Flag (repro.cli serve)' table"
            in errors)


def test_repo_flag_tables_match_the_parsers():
    assert check_docs.check_flag_tables() == []


_ENV_TABLE = """\
| Flag (runner) | Environment variable | Default | Meaning |
|---|---|---|---|
| `--jobs N` | `SMITE_JOBS` | `1` | Worker processes. |
| — | `SMITE_TRACE_LIMIT` | `200000` | A knob nothing reads. |
| `--no-cache` | `SMITE_NO_CACHE=1` | off | No cache. |

Prose naming `SMITE_ELSEWHERE` is not a row.
"""


def test_stale_and_missing_env_rows_are_reported(tmp_path):
    (tmp_path / "knobs.py").write_text(
        'import os\n'
        'JOBS = os.environ.get("SMITE_JOBS")\n'
        'NO_CACHE = "SMITE_NO_CACHE"\n'
        'UNDOCUMENTED = os.environ.get("SMITE_SECRET")\n'
        '"""A docstring naming SMITE_TRACE_LIMIT is not a read."""\n',
        encoding="utf-8")
    errors = check_docs.check_env_table(_ENV_TABLE, [tmp_path])
    assert errors == [
        "env table: README documents 'SMITE_TRACE_LIMIT', which nothing "
        "under src/, scripts/ or examples/ reads",
        "env table: 'SMITE_SECRET' is read but has no row in README's "
        "configuration reference",
    ]


def test_repo_env_table_matches_the_code():
    assert check_docs.check_env_table() == []


# ----------------------------------------------------------------------
# The repository's real documentation

def test_repo_docs_have_no_dead_links():
    assert check_docs.check_links() == []


def test_repo_docs_name_no_dead_paths():
    assert check_docs.check_inline_paths() == []


@pytest.mark.slow
def test_repo_doc_snippets_execute():
    assert check_docs.check_snippets() == []


# ----------------------------------------------------------------------
# Lint invocations vs the lint CLI's parser

def test_a_removed_lint_flag_in_a_doc_is_reported(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```bash\n"
        "python -m repro.lint --format json src   # --jobs in a comment\n"
        "python -m repro.lint --jobs 4\n"
        "```\n"
        "Run `python scripts/lint.py --list-rules` or "
        "`python scripts/lint.py --no-cache`, then `--jobs` alone.\n",
        encoding="utf-8")
    assert check_docs.check_lint_flags([doc]) == [
        f"{doc}:3: lint flag '--jobs' is not an option of "
        "python -m repro.lint",
        f"{doc}:5: lint flag '--no-cache' is not an option of "
        "python -m repro.lint",
    ]


def test_repo_docs_pass_only_real_lint_flags():
    assert check_docs.check_lint_flags() == []
