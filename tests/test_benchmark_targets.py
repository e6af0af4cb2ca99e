"""Every entry point the end-to-end benchmark wraps still exists.

``benchmarks/e2e/layers.py`` patches a fixed list of functions and
methods (its ``TARGETS``) to time each layer. A refactor that renames or
moves one of them breaks traced benchmark runs, which the default test
run does not collect; this check fails the ordinary suite instead. The
harness module is loaded from its file and never modified.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_e2e_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


TARGETS = _targets()


def test_targets_are_listed():
    assert len(TARGETS) >= 40


@pytest.mark.parametrize("module_name, attribute", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    if owner_name:
        # The harness patches the class attribute it finds in __dict__.
        owner = getattr(module, owner_name)
        assert callable(owner.__dict__.get(name)), attribute
    else:
        assert callable(getattr(module, name, None)), attribute


def test_simulator_keeps_its_solver_import_sites():
    # Module functions are patched at every import site; the simulator's
    # own bindings are the ones its solves go through.
    from repro.smt import batch, simulator, solver

    assert simulator.solve_many is batch.solve_many
    assert simulator.solve is solver.solve
