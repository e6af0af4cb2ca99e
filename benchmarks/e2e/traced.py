"""Run a ``repro`` entry point with the per-layer wrappers installed.

Usage::

    python benchmarks/e2e/traced.py SPANS.json MODULE [ARGS...]

Imports ``MODULE`` (``repro.cli`` or ``repro.experiments.runner``),
patches the layer entry points, calls ``MODULE.main(ARGS)``, and writes
the recorder summary to ``SPANS.json`` when ``main`` returns. The
benchmark launches its traced child processes through this file.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    """Entry point; see the module docstring."""
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, module_name, args = Path(argv[0]), argv[1], argv[2:]
    recorder = layers.Recorder()
    patched = layers.install(recorder)
    try:
        return importlib.import_module(module_name).main(args)
    finally:
        recorder.stop()
        layers.uninstall(patched)
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
