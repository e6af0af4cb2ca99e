#!/usr/bin/env python
"""Run the SMiTe static analyzer over the repository.

A thin wrapper around ``python -m repro.lint`` that works from any
working directory without an installed package or PYTHONPATH: it pins
``--root`` to the repository and puts ``src/`` on ``sys.path`` itself.

Usage::

    python scripts/lint.py                # gate: exit 1 on any violation
    python scripts/lint.py --format json  # machine-readable findings
    python scripts/lint.py --list-rules   # rule reference

The linted paths and per-family scopes are constants in
``src/repro/lint/config.py``; the full rule reference is
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "src"))

from repro.lint.cli import main  # noqa: E402 - needs the path above


if __name__ == "__main__":
    raise SystemExit(main(["--root", str(REPO), *sys.argv[1:]]))
