"""``repro.lint``: domain-aware static analysis for the SMiTe tree.

A dependency-free, AST-based lint framework. One run parses every file
once and links a project-wide symbol and call graph
(:mod:`repro.lint.graph` — imports, class hierarchies, blocking
reachability), then runs every rule family in process, the single-walk
ones against the AST and the cross-module one against the graph. Five
built-in families tie to the paper's correctness invariants and the
serving runtime's event loop:

- **determinism** (SMT1xx): unseeded RNGs, wall-clock logic, and
  set-iteration-order hazards in model code — characterization runs
  must be bit-reproducible for Eq. 1-3 to mean anything;
- **metrics** (SMT2xx): every ``repro.obs`` metric/span name recorded
  anywhere in the tree must be statically resolvable and declared in
  :mod:`repro.obs.catalog` — a whole-tree superset of the runtime
  docs-parity check;
- **api** (SMT4xx): exported names need docstrings; ``__all__`` must
  not drift from what a module defines;
- **ports** (SMT5xx): each functional-unit Ruler's kernel, walked
  through the real ISA layer, must map to exactly one execution port
  (Table 1) and respect the 0.01% loop-branch purity budget;
- **concurrency** (SMT6xx): blocking calls transitively reachable from
  coroutines without an executor hop, and dropped (un-awaited)
  coroutine objects or task handles.

Run it as ``python -m repro.lint``; the linted paths and per-family
scopes are constants in :mod:`repro.lint.config`, and a scope is the
one way to exempt code from a family. Full reference:
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from repro.lint.config import Scope
from repro.lint.engine import (
    LintResult,
    ModuleContext,
    collect_files,
    lint_sources,
    run,
)
from repro.lint.graph import ProjectGraph, build_graph, scan_module
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, register

__all__ = [
    "Finding",
    "LintResult",
    "ModuleContext",
    "ProjectGraph",
    "Rule",
    "Scope",
    "all_rules",
    "build_graph",
    "collect_files",
    "lint_sources",
    "scan_module",
    "register",
    "run",
]
