"""``repro.lint``: domain-aware static analysis for the SMiTe tree.

A dependency-free, AST-based lint framework. One run parses every file
once and links a project-wide symbol and call graph
(:mod:`repro.lint.graph` — imports, class hierarchies, worker taint,
blocking reachability), then runs every rule family in process, the
single-walk ones against the AST and the cross-module ones against the
graph, and applies inline suppressions. Seven built-in families tie to
the paper's correctness invariants and the serving runtime's
concurrency contracts:

- **determinism** (SMT1xx): unseeded RNGs, wall-clock logic, and
  set-iteration-order hazards in model code — characterization runs
  must be bit-reproducible for Eq. 1-3 to mean anything;
- **metrics** (SMT2xx): every ``repro.obs`` metric/span name recorded
  anywhere in the tree must be statically resolvable and declared in
  :mod:`repro.obs.catalog` — a whole-tree superset of the runtime
  docs-parity check;
- **numeric** (SMT3xx): exact float equality and unguarded division in
  the Eq. 1-9 code paths;
- **api** (SMT4xx): exported names need docstrings; ``__all__`` must
  not drift from what a module defines;
- **ports** (SMT5xx): each functional-unit Ruler's kernel, walked
  through the real ISA layer, must map to exactly one execution port
  (Table 1) and respect the 0.01% loop-branch purity budget;
- **concurrency** (SMT6xx): blocking calls transitively reachable from
  coroutines without an executor hop, dropped (un-awaited) coroutine
  objects, and implicit event-loop creation;
- **procsafety** (SMT7xx): worker-process state that never folds back
  (obs snapshot/merge), unpicklable executor submit targets, and
  process/socket resources without a close guarantee.

Run it as ``python -m repro.lint``; the linted paths and per-family
scopes are constants in :mod:`repro.lint.config`; silence one finding
with ``# smite: noqa[SMT301]: reason``. Full reference:
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
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, register
from repro.lint.suppress import Suppression, parse_suppressions

__all__ = [
    "Finding",
    "LintResult",
    "ModuleContext",
    "ProjectGraph",
    "Rule",
    "Scope",
    "Severity",
    "Suppression",
    "all_rules",
    "build_graph",
    "collect_files",
    "lint_sources",
    "scan_module",
    "parse_suppressions",
    "register",
    "run",
]
