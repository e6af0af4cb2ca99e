"""Command-line interface: ``python -m repro.lint [paths...]``.

One way to run: parse every file, build the project graph, run every
rule in process, apply inline suppressions, report. With no paths it
lints ``src``, ``benchmarks`` and ``scripts`` under ``--root``
(:data:`repro.lint.config.PATHS`).

Exit codes: 0 = clean (only suppressed/advisory findings),
1 = unsuppressed violations, 2 = usage error.

Examples::

    python -m repro.lint                     # lint the tree
    python -m repro.lint --format json src   # machine-readable findings
    python -m repro.lint --stats             # per-rule counts + timings
    python -m repro.lint --list-rules        # rule reference
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import LintResult, run
from repro.lint.findings import Severity
from repro.lint.registry import all_rules

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="SMiTe domain-aware static analysis "
                    "(see docs/STATIC_ANALYSIS.md)",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src, benchmarks, scripts)")
    parser.add_argument("--root", default=".",
                        help="repository root that paths, scopes and "
                             "reported locations are relative to "
                             "(default: cwd)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule reference and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule finding/suppression counts "
                             "and phase timings")
    return parser


def _list_rules() -> int:
    print(f"{'id':<8} {'severity':<8} {'family':<12} summary")
    for rule in all_rules():
        print(f"{rule.id:<8} {rule.severity.value:<8} {rule.family:<12} "
              f"{rule.summary}")
    return 0


def _render_text(result: LintResult, *, show_suppressed: bool) -> None:
    failing = result.failing
    for finding in result.findings:
        is_failing = (not finding.suppressed
                      and finding.severity is not Severity.INFO)
        if is_failing or show_suppressed:
            tag = ""
            if finding.suppressed:
                reason = finding.suppress_reason or "no reason given"
                tag = f"  (suppressed: {reason})"
            print(finding.render() + tag)
    suppressed = sum(1 for f in result.findings if f.suppressed)
    advisory = sum(1 for f in result.findings
                   if f.severity is Severity.INFO and not f.suppressed)
    status = "FAIL" if result.exit_code else "OK"
    print(f"{status}: {len(failing)} new violation(s), "
          f"{suppressed} suppressed, {advisory} advisory "
          f"across {result.files_checked} file(s)")


def _render_stats(result: LintResult) -> None:
    stats = result.rule_stats()
    print()
    print(f"{'rule':<8} {'failing':>8} {'suppressed':>11} {'advisory':>9}")
    for rule_id in sorted(stats):
        row = stats[rule_id]
        print(f"{rule_id:<8} {row['failing']:>8} "
              f"{row['suppressed']:>11} {row['advisory']:>9}")
    timings = result.timings
    print(f"phase1 {timings['phase1_s']:.3f}s (parse+graph)  "
          f"phase2 {timings['phase2_s']:.3f}s (rules)  "
          f"total {timings['total_s']:.3f}s")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = _parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    root = Path(args.root)
    if not root.is_dir():
        parser.error(f"--root {args.root!r} is not a directory")
    paths = [Path(p) for p in args.paths] or None
    if paths:
        missing = [p for p in paths if not p.exists()]
        if missing:
            parser.error(f"no such path(s): "
                         f"{', '.join(str(p) for p in missing)}")

    result = run(root, paths)
    if args.format == "json":
        print(json.dumps({
            "findings": [f.to_dict() for f in result.findings],
            "files_checked": result.files_checked,
            "exit_code": result.exit_code,
            "timings": result.timings,
            "rule_stats": result.rule_stats(),
        }, indent=2))
    else:
        _render_text(result, show_suppressed=args.show_suppressed)
        if args.stats:
            _render_stats(result)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
