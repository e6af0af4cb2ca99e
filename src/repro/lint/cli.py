"""Command-line interface: ``python -m repro.lint [paths...]``.

One way to run: parse every file, build the project graph, run every
rule in process, report. With no paths it lints ``src``, ``benchmarks``
and ``scripts`` under ``--root`` (:data:`repro.lint.config.PATHS`).

Exit codes: 0 = clean, 1 = violations, 2 = usage error.

Examples::

    python -m repro.lint                     # lint the tree
    python -m repro.lint --format json src   # machine-readable findings
    python -m repro.lint --list-rules        # rule reference
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import LintResult, run
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
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule reference and exit")
    return parser


def _list_rules() -> int:
    print(f"{'id':<8} {'family':<12} summary")
    for rule in all_rules():
        print(f"{rule.id:<8} {rule.family:<12} {rule.summary}")
    return 0


def _render_text(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.render())
    status = "FAIL" if result.exit_code else "OK"
    print(f"{status}: {len(result.findings)} new violation(s) "
          f"across {result.files_checked} file(s)")


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
        }, indent=2))
    else:
        _render_text(result)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
