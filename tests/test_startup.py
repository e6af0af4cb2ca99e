"""Start-up imports only what the chosen command runs.

Listing the experiments, printing ``--help`` and ``import repro`` must not
import numpy (or, through it, the model): every package ``__init__`` on
those paths resolves its exports lazily, and the experiment registry names
drivers by module path. These tests check which modules a fresh
interpreter holds, not how long it took, so they are deterministic.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_PROBE = """
import runpy, sys
sys.argv = [{module!r}, *{args!r}]
try:
    runpy.run_module({module!r}, run_name="__main__")
except SystemExit as exit:
    assert exit.code in (0, None), exit.code
print("numpy" in sys.modules)
"""


def _imports_numpy(code: str) -> bool:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return out.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("module, args", [
    ("repro.experiments.runner", ["--list"]),
    ("repro.cli", ["--help"]),
    ("repro.cli", ["serve", "--help"]),
])
def test_command_start_imports_no_numpy(module, args):
    assert not _imports_numpy(_PROBE.format(module=module, args=args))


def test_import_repro_imports_no_numpy():
    assert not _imports_numpy(
        "import sys, repro, repro.experiments, repro.analysis, repro.smt\n"
        "print('numpy' in sys.modules)")


_LAZY_PACKAGES = ("repro", "repro.analysis", "repro.experiments",
                  "repro.smt")


def _type_checking_imports(package) -> dict[str, tuple[str, ...]]:
    """The ``if TYPE_CHECKING:`` imports of a package: module -> names."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    found: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom)
                found[stmt.module] = tuple(a.name for a in stmt.names)
    return found


@pytest.mark.parametrize("name", _LAZY_PACKAGES)
def test_lazy_exports_match_their_type_checking_imports(name):
    """What type checkers and the linter see is what ``__getattr__``
    resolves, and every resolved name is the module's own object."""
    package = importlib.import_module(name)
    assert _type_checking_imports(package) == package._EXPORTS
    lazy = {n for names in package._EXPORTS.values() for n in names}
    assert lazy == set(package.__all__) - {"__version__"}
    assert lazy <= set(dir(package))
    for module, names in package._EXPORTS.items():
        for export in names:
            assert getattr(package, export) is getattr(
                importlib.import_module(module), export)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")
