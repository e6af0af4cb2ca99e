#!/usr/bin/env python
"""Keep the prose honest: run doc snippets, check relative links.

Walks the user-facing markdown (README.md, EXPERIMENTS.md, DESIGN.md,
docs/*.md) and

1. **executes fenced code snippets** in a scratch directory with the
   repository's ``src/`` on ``PYTHONPATH``, so a renamed API or a stale
   import in the docs fails CI instead of a reader;
2. **resolves every relative markdown link**, and every repository path
   written in inline code (a path under ``src/``, ``tests/``,
   ``scripts/``, ``benchmarks/``, ``docs/`` or ``examples/``, or a root
   ``*.json``; glob patterns are skipped), so moved or deleted files
   can't leave dead references behind;
3. **checks documentation coverage**: every public ``repro.cli``
   subcommand must be mentioned (as ``repro.cli <name>``) somewhere in
   the user-facing docs, every metric in the observability catalog
   (``repro.obs.catalog``) must have a reference row in
   ``docs/OBSERVABILITY.md``, every registered lint rule id must
   have a table row in ``docs/STATIC_ANALYSIS.md``, and every cataloged
   alert rule must have a table row in ``docs/TELEMETRY.md`` (each in
   both directions — a doc row for an unregistered id is equally
   fatal). Adding a subcommand, metric, rule, or alert without
   documenting it fails CI;
4. **checks README's "Configuration reference" flag tables** against
   the parsers they name: every flag in a table's first column must
   exist on that parser (the runner, ``repro.cli serve``, ``repro.cli
   serve-api``), and every option of those parsers needs a row in its
   own table or in the shared runner table. Removing a flag without
   its row, or adding one without a row, fails CI;
   likewise every ``SMITE_*`` variable in the runner table's
   environment column must be read under ``src/``, ``scripts/`` or
   ``examples/`` (a string constant spelling its name), and every
   variable read there needs a row;
5. **checks lint invocations**: every ``--flag`` written after
   ``python -m repro.lint`` or ``scripts/lint.py`` in a user-facing doc
   must be an option of ``repro.lint.cli``'s parser.

Snippet policy, controlled by an HTML comment on the line above the
fence:

- ``python`` blocks run by default; ``<!-- check-docs: skip -->``
  exempts one (interactive fragments, pseudo-code).
- ``bash``/``sh``/``shell`` blocks run only when opted in with
  ``<!-- check-docs: run -->`` — most shell blocks install packages or
  launch long experiment sweeps, which a docs check must not do.
- Blocks in any other (or no) language are never executed.

Usage::

    python scripts/check_docs.py            # check everything
    python scripts/check_docs.py --links-only

The same checks run inside the test suite (``tests/test_check_docs.py``).
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

REPO = Path(__file__).resolve().parent.parent

#: The user-facing documents; generated or internal notes are exempt.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
DOC_GLOBS = ("docs/*.md",)

SKIP_MARK = "<!-- check-docs: skip -->"
RUN_MARK = "<!-- check-docs: run -->"

_FENCE = re.compile(r"^```(?P<lang>[A-Za-z]*)\s*$")
_LINK = re.compile(r"(?<!!)\[[^\]]*\]\((?P<target>[^)\s]+)\)")
_SNIPPET_TIMEOUT = 120

#: Inline code naming a repository path: a token under one of the
#: source trees (a ``:line`` or ``::test`` suffix is dropped), or a whole
#: span naming a root ``*.json``.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_TREE_PATH = re.compile(
    r"(?:src|tests|scripts|benchmarks|docs|examples)/[^\s:,;()'\"]*")
_ROOT_JSON = re.compile(r"[\w.-]+\.json")
_GLOB_CHARS = frozenset("*?[]{}<>")


def _doc_name(path: Path) -> str:
    try:
        return str(path.relative_to(REPO))
    except ValueError:  # a doc outside the repo (tests use tmp dirs)
        return str(path)


@dataclass
class Snippet:
    path: Path
    line: int  # 1-based line of the opening fence
    lang: str
    code: str
    marker: str | None

    @property
    def where(self) -> str:
        return f"{_doc_name(self.path)}:{self.line}"

    @property
    def should_run(self) -> bool:
        if self.marker == SKIP_MARK:
            return False
        if self.lang == "python":
            return True
        return self.lang in ("bash", "sh", "shell") and \
            self.marker == RUN_MARK


def doc_paths() -> list[Path]:
    paths = [REPO / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        paths.extend(sorted(REPO.glob(pattern)))
    return [path for path in paths if path.exists()]


def extract_snippets(path: Path) -> list[Snippet]:
    snippets: list[Snippet] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    index = 0
    while index < len(lines):
        match = _FENCE.match(lines[index])
        if match and match["lang"]:
            marker = lines[index - 1].strip() if index else ""
            body: list[str] = []
            start = index
            index += 1
            while index < len(lines) and lines[index].rstrip() != "```":
                body.append(lines[index])
                index += 1
            snippets.append(Snippet(
                path=path,
                line=start + 1,
                lang=match["lang"].lower(),
                code="\n".join(body) + "\n",
                marker=marker if marker.startswith("<!-- check-docs:")
                else None,
            ))
        index += 1
    return snippets


def run_snippet(snippet: Snippet, workdir: Path) -> str | None:
    """Execute one snippet; the error text on failure, None on success."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("SMITE_METRICS_OUT", None)
    env.pop("SMITE_TRACE_OUT", None)
    env.pop("SMITE_TELEMETRY_OUT", None)
    if snippet.lang == "python":
        command = [sys.executable, "-c", snippet.code]
    else:
        command = ["bash", "-euo", "pipefail", "-c", snippet.code]
    try:
        completed = subprocess.run(
            command, cwd=workdir, env=env, capture_output=True, text=True,
            timeout=_SNIPPET_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"{snippet.where}: snippet timed out ({_SNIPPET_TIMEOUT}s)"
    if completed.returncode != 0:
        return (f"{snippet.where}: {snippet.lang} snippet exited "
                f"{completed.returncode}\n{completed.stderr.strip()}")
    return None


def check_snippets() -> list[str]:
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="check_docs_") as tmp:
        for path in doc_paths():
            for snippet in extract_snippets(path):
                if not snippet.should_run:
                    continue
                error = run_snippet(snippet, Path(tmp))
                if error:
                    errors.append(error)
    return errors


def check_links() -> list[str]:
    errors: list[str] = []
    for path in doc_paths():
        for line_number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            for match in _LINK.finditer(line):
                target = match["target"]
                if target.startswith(("http://", "https://", "mailto:",
                                      "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(REPO)}:{line_number}: "
                        f"dead relative link -> {target}"
                    )
    return errors


def inline_paths(line: str) -> list[str]:
    """The repository paths one line of prose names in inline code."""
    paths: list[str] = []
    for span in _CODE_SPAN.findall(line):
        for token in span.split():
            match = _TREE_PATH.match(token)
            if match:
                paths.append(match.group())
        if _ROOT_JSON.fullmatch(span):
            paths.append(span)
    return [path for path in paths if not _GLOB_CHARS & set(path)]


def generated_patterns() -> list[str]:
    """The root ``.gitignore`` entries: names that runs leave behind."""
    ignore = REPO / ".gitignore"
    if not ignore.exists():
        return []
    lines = (line.strip() for line in
             ignore.read_text(encoding="utf-8").splitlines())
    return [line.strip("/") for line in lines
            if line and not line.startswith(("#", "!"))]


def is_generated(target: str, patterns: list[str]) -> bool:
    """Whether ``target`` or one of its components is gitignored."""
    names = (target, *PurePosixPath(target).parts)
    return any(fnmatch.fnmatchcase(name, pattern)
               for pattern in patterns for name in names)


def check_inline_paths() -> list[str]:
    """Every repository path named in inline code must exist.

    Gitignored names are generated files (caches, build output): a clean
    checkout lacks them, so they are not dead paths.
    """
    errors: list[str] = []
    generated = generated_patterns()
    for path in doc_paths():
        fenced = False
        for line_number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for target in inline_paths(line):
                if not ((REPO / target).exists()
                        or is_generated(target, generated)):
                    errors.append(
                        f"{path.relative_to(REPO)}:{line_number}: "
                        f"dead repository path -> {target}"
                    )
    return errors


def _all_doc_text() -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in doc_paths())


def check_cli_coverage() -> list[str]:
    """Every public CLI subcommand needs a documentation mention."""
    sys.path.insert(0, str(REPO / "src"))
    import argparse as _argparse

    from repro.cli import _parser

    subcommands: list[str] = []
    for action in _parser()._actions:
        if isinstance(action, _argparse._SubParsersAction):
            subcommands = sorted(action.choices)
    text = _all_doc_text()
    return [
        f"cli coverage: subcommand '{name}' has no 'repro.cli {name}' "
        f"mention in any user-facing doc"
        for name in subcommands
        if f"repro.cli {name}" not in text
    ]


def check_metric_coverage() -> list[str]:
    """Every cataloged metric needs a row in docs/OBSERVABILITY.md."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.catalog import CATALOG

    reference = REPO / "docs" / "OBSERVABILITY.md"
    if not reference.exists():
        return ["metric coverage: docs/OBSERVABILITY.md is missing"]
    text = reference.read_text(encoding="utf-8")
    return [
        f"metric coverage: {spec.kind} '{spec.name}' has no "
        f"documentation row in docs/OBSERVABILITY.md"
        for spec in CATALOG
        if f"`{spec.name}`" not in text
    ]


#: A markdown table row whose first cell is a rule id — only table rows
#: count, so an id cited in prose or a code-fence example ("SMT901" in
#: the writing-a-rule sketch) is not mistaken for reference coverage.
_RULE_ROW = re.compile(r"^\|\s*(SMT\d{3})\s*\|", re.MULTILINE)

#: Ids documented outside the per-family tables by design.
_RULE_DOC_EXEMPT = frozenset({
    "SMT000",  # the parse-failure pseudo-rule has its own section
})


def check_rule_coverage() -> list[str]:
    """Registered lint rule ids and doc table rows must match exactly."""
    sys.path.insert(0, str(REPO / "src"))
    import repro.lint.rules  # noqa: F401  (imports register the rules)
    from repro.lint.registry import all_rules

    reference = REPO / "docs" / "STATIC_ANALYSIS.md"
    if not reference.exists():
        return ["rule coverage: docs/STATIC_ANALYSIS.md is missing"]
    documented = set(_RULE_ROW.findall(
        reference.read_text(encoding="utf-8")))
    registered = {rule.id for rule in all_rules()}
    errors = [
        f"rule coverage: rule '{rule_id}' is registered but has no "
        f"table row in docs/STATIC_ANALYSIS.md"
        for rule_id in sorted(registered - documented - _RULE_DOC_EXEMPT)
    ]
    errors += [
        f"rule coverage: docs/STATIC_ANALYSIS.md documents '{rule_id}' "
        f"but no such rule is registered"
        for rule_id in sorted(documented - registered)
    ]
    return errors


#: A docs/TELEMETRY.md alert-rule table row: the first cell is the rule
#: name. Only table rows count — a rule cited in prose is not coverage.
_ALERT_ROW = re.compile(r"^\|\s*`(serve\.alert\.[a-z_]+)`\s*\|",
                        re.MULTILINE)


def check_alert_rule_coverage() -> list[str]:
    """Cataloged alert rules and docs/TELEMETRY.md rows must match."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.catalog import specs_of_kind

    reference = REPO / "docs" / "TELEMETRY.md"
    if not reference.exists():
        return ["alert coverage: docs/TELEMETRY.md is missing"]
    documented = set(_ALERT_ROW.findall(
        reference.read_text(encoding="utf-8")))
    registered = {spec.name for spec in specs_of_kind("alert")}
    errors = [
        f"alert coverage: rule '{name}' is cataloged but has no "
        f"table row in docs/TELEMETRY.md"
        for name in sorted(registered - documented)
    ]
    errors += [
        f"alert coverage: docs/TELEMETRY.md documents '{name}' but no "
        f"such alert rule is cataloged"
        for name in sorted(documented - registered)
    ]
    return errors


#: README flag-table label -> (module with a ``_parser()``, subcommand).
_FLAG_TABLE_PARSERS = {
    "runner": ("repro.experiments.runner", None),
    "repro.cli serve": ("repro.cli", "serve"),
    "repro.cli serve-api": ("repro.cli", "serve-api"),
}
_FLAG_TABLE_HEADER = re.compile(r"^\| Flag \(`?(?P<label>[^`)]+)`?\) \|")
_FLAG = re.compile(r"--[a-z][a-z-]*")


def _table_rows(text: str):
    """(label, cells) of every row of the ``Flag (label)`` tables; the
    header row itself comes with no cells."""
    label = None
    for line in text.splitlines():
        line = line.strip()
        header = _FLAG_TABLE_HEADER.match(line)
        if header:
            label = header["label"]
            yield label, []
        elif label is not None and line.startswith("|"):
            yield label, line.split("|")
        else:
            label = None


def flag_tables(text: str) -> dict[str, set[str]]:
    """Table label -> the flags named in its rows' first column."""
    tables: dict[str, set[str]] = {}
    for label, cells in _table_rows(text):
        tables.setdefault(label, set()).update(
            _FLAG.findall(cells[1]) if cells else ())
    return tables


def parser_flags(label: str) -> set[str]:
    """The ``--long`` options of the parser a README table names."""
    sys.path.insert(0, str(REPO / "src"))
    import argparse as _argparse
    import importlib

    module, subcommand = _FLAG_TABLE_PARSERS[label]
    parser = importlib.import_module(module)._parser()
    if subcommand is not None:
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, _argparse._SubParsersAction)]
        parser = subparsers.choices[subcommand]
    return _long_flags(parser)


def _long_flags(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def check_flag_tables(text: str | None = None) -> list[str]:
    """README flag tables and the parsers they name must agree."""
    if text is None:
        text = (REPO / "README.md").read_text(encoding="utf-8")
    tables = flag_tables(text)
    errors = []
    for label in _FLAG_TABLE_PARSERS:
        if label not in tables:
            errors.append(f"flag tables: README has no 'Flag ({label})' "
                          f"table")
            continue
        errors += [
            f"flag tables: README's {label} table documents '{flag}', "
            f"which that parser does not have"
            for flag in sorted(tables[label] - parser_flags(label))
        ]
    for label in _FLAG_TABLE_PARSERS:
        # A serving flag may be documented in its own table or in the
        # shared runner table (--fast, --metrics-out, --trace-out, ...).
        documented = tables.get(label, set()) | tables.get("runner", set())
        errors += [
            f"flag tables: {label} option '{flag}' has no row in its "
            f"README table or the runner table"
            for flag in sorted(parser_flags(label) - documented)
        ]
    return errors


#: Directories whose Python files count as reading a ``SMITE_*`` variable.
_ENV_READERS = ("src", "scripts", "examples")
_ENV_NAME = re.compile(r"SMITE_[A-Z][A-Z0-9_]*")


def env_table(text: str) -> set[str]:
    """The ``SMITE_*`` names in the runner table's environment column."""
    return {name for label, cells in _table_rows(text)
            if label == "runner" and cells
            for name in _ENV_NAME.findall(cells[2])}


def env_reads(roots: list[Path] | None = None) -> set[str]:
    """``SMITE_*`` names spelled exactly by a string constant in a Python
    file under ``roots`` (default: src/, scripts/ and examples/)."""
    names: set[str] = set()
    for root in roots or [REPO / name for name in _ENV_READERS]:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _ENV_NAME.fullmatch(node.value)
            )
    return names


def check_env_table(text: str | None = None,
                    roots: list[Path] | None = None) -> list[str]:
    """README's environment rows and the variables the code reads agree."""
    if text is None:
        text = (REPO / "README.md").read_text(encoding="utf-8")
    documented = env_table(text)
    read = env_reads(roots)
    return [
        f"env table: README documents '{name}', which nothing under "
        f"src/, scripts/ or examples/ reads"
        for name in sorted(documented - read)
    ] + [
        f"env table: '{name}' is read but has no row in README's "
        f"configuration reference"
        for name in sorted(read - documented)
    ]


#: A lint invocation in prose or a code block; ``args`` runs to the end
#: of its code span, a shell comment, or the end of the line.
_LINT_CALL = re.compile(
    r"(?:-m repro\.lint|scripts/lint\.py)(?![\w.])(?P<args>[^`#\n]*)")


def check_lint_flags(paths: list[Path] | None = None) -> list[str]:
    """Every flag a doc passes to the lint CLI must exist on its parser."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.lint.cli import _parser

    known = _long_flags(_parser())
    errors = []
    for path in doc_paths() if paths is None else paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            for call in _LINT_CALL.finditer(line):
                errors += [
                    f"{_doc_name(path)}:{lineno}: lint flag '{flag}' is "
                    f"not an option of python -m repro.lint"
                    for flag in _FLAG.findall(call["args"])
                    if flag not in known
                ]
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links-only", action="store_true",
                        help="skip snippet execution")
    args = parser.parse_args(argv)

    errors = check_links()
    errors += check_inline_paths()
    errors += check_cli_coverage()
    errors += check_metric_coverage()
    errors += check_rule_coverage()
    errors += check_alert_rule_coverage()
    errors += check_flag_tables()
    errors += check_env_table()
    errors += check_lint_flags()
    if not args.links_only:
        errors += check_snippets()
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = ", ".join(str(p.relative_to(REPO)) for p in doc_paths())
        print(f"docs OK ({checked})")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
