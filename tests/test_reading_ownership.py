"""Only ``repro.smt`` turns readings into placements.

Callers warm the simulator with ``Simulator.prefetch_readings`` and the
readings they are about to make; which placements a measurement resolves
is the simulator's business. A module outside ``src/repro/smt/`` that
calls a simulator's ``prefetch`` or ``server_placements`` is rebuilding
a placement grid by hand, and fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OWNER = SRC / "smt"


def _receiver_name(node: ast.expr) -> str:
    """The last name of a call receiver: ``self.simulator`` -> ``simulator``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name == "server_placements":
            found.append((node.lineno, name))
        elif name == "prefetch" and isinstance(func, ast.Attribute):
            receiver = _receiver_name(func.value).lower()
            if receiver == "sim" or receiver.endswith("simulator"):
                found.append((node.lineno, f"{receiver}.prefetch"))
    return found


def test_the_detector_sees_both_calls():
    tree = ast.parse(
        "self.simulator.prefetch(jobs)\n"
        "sim.prefetch(jobs)\n"
        "policy.prefetch(pairs, 6)\n"
        "simulator.server_placements(a, b, instances=1)\n"
    )
    assert [line for line, _ in _violations(tree)] == [1, 2, 4]


def test_no_module_outside_smt_builds_placement_grids():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if OWNER in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC.parent)}:{line}: {what}"
                      for line, what in _violations(tree)]
    assert not offenders, (
        "warm the simulator with Simulator.prefetch_readings instead:\n"
        + "\n".join(offenders))
