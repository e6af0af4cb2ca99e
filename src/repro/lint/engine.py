"""The lint engine: parse, link the project graph, run every rule.

A run first parses every file once and scans it into the plain-data
module summaries of :mod:`repro.lint.graph`, then links them into one
:class:`~repro.lint.graph.ProjectGraph` — the project-wide symbol table,
import/call graph and the blocking-reachability set the cross-module
concurrency rules need (phase 1).

It then lints each module in process (phase 2): the single-walk
families (SMT1xx-5xx) dispatch their ``visit_<NodeType>`` hooks during
one shared :func:`ast.walk`, and the graph family (SMT6xx) reads
``ctx.graph`` in its ``check_module`` hooks. Rules never do their own
tree walks or file IO, which keeps a whole-tree run linear in the
source size regardless of how many rules are enabled.

:func:`lint_sources` is the one project-building path: :func:`run`
reads the tree into it, and test fixtures hand it in-memory modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Type

from repro.lint.config import PATHS, SCOPES
from repro.lint.findings import Finding
from repro.lint.graph import ProjectGraph, build_graph, scan_module
from repro.lint.registry import Rule, all_rules

__all__ = ["ModuleContext", "LintResult", "lint_sources", "collect_files",
           "run", "SYNTAX_ERROR_RULE"]

#: Pseudo-rule id for files the parser rejects.
SYNTAX_ERROR_RULE = "SMT000"


class ModuleContext:
    """Everything a rule may inspect about the module being linted."""

    def __init__(self, *, path: Path, relpath: str, source: str,
                 tree: ast.Module, graph: ProjectGraph) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.graph = graph
        self.findings: list[Finding] = []

    def report(self, rule: Rule, message: str, *,
               node: ast.AST | None = None, line: int = 0,
               col: int = 0) -> None:
        """Record one violation, located at ``node`` or an explicit line."""
        if node is not None:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(
            rule=rule.id,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            source=self.source_line(line),
        ))

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _active_rules(relpath: str,
                  rule_classes: Sequence[Type[Rule]]) -> list[Rule]:
    return [rule_class() for rule_class in rule_classes
            if SCOPES[rule_class.family].applies_to(relpath)]


def _syntax_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule=SYNTAX_ERROR_RULE, path=relpath,
        line=exc.lineno or 0, col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def _lint_module(ctx: ModuleContext,
                 rule_classes: Sequence[Type[Rule]]) -> list[Finding]:
    """Phase 2 for one module: the shared walk plus module hooks."""
    rules = _active_rules(ctx.relpath, rule_classes)
    if not rules:
        return []

    # One shared walk: dispatch each node to every rule hooked on its type.
    hooks: dict[str, list] = {}
    for rule in rules:
        for node_type, method_name in type(rule).ast_hooks().items():
            hooks.setdefault(node_type, []).append(getattr(rule, method_name))
    if hooks:
        for node in ast.walk(ctx.tree):
            for hook in hooks.get(type(node).__name__, ()):
                hook(node, ctx)
    for rule in rules:
        rule.check_module(ctx)
    return ctx.findings


def lint_sources(sources: Mapping[str, str], *, root: Path = Path("."),
                 rule_classes: Sequence[Type[Rule]] | None = None,
                 ) -> list[Finding]:
    """Lint several modules as one project; findings sorted by location.

    ``sources`` maps root-relative paths to source text; scopes match
    on those paths and findings report them. A rule that loads the
    module itself (SMT5xx) reads ``root / relpath``. A coroutine in one
    file and the blocking helper it reaches two files away are linked
    through one project graph, whether the text came from a tree run
    or from a test fixture.
    """
    if rule_classes is None:
        rule_classes = all_rules()
    findings: list[Finding] = []
    parsed: dict[str, tuple[str, ast.Module]] = {}
    for relpath, source in sources.items():
        relpath = relpath.replace("\\", "/")
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as exc:
            findings.append(_syntax_finding(relpath, exc))
            continue
        parsed[relpath] = (source, tree)
    graph = build_graph({relpath: scan_module(relpath, tree)
                         for relpath, (_source, tree) in parsed.items()})
    for relpath, (source, tree) in parsed.items():
        ctx = ModuleContext(path=root / relpath, relpath=relpath,
                            source=source, tree=tree, graph=graph)
        findings.extend(_lint_module(ctx, rule_classes))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _relpath_for(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        return str(resolved.relative_to(root)).replace("\\", "/")
    except ValueError:
        return str(resolved).replace("\\", "/")


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    seen: set[Path] = set()
    unique = []
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def run(root: Path | str = ".",
        paths: Sequence[Path] | None = None) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (default: :data:`PATHS`).

    Findings report paths relative to ``root``; a file outside it
    reports its absolute path.
    """
    root = Path(root).resolve()
    if paths is None:
        paths = [root / p for p in PATHS]
    files = collect_files(paths)
    sources = {_relpath_for(file, root): file.read_text(encoding="utf-8")
               for file in files}
    return LintResult(findings=lint_sources(sources, root=root),
                      files_checked=len(files))
