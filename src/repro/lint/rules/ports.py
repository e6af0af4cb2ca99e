"""Ruler port-purity rules (SMT5xx) — the domain-specific family.

SMiTe's functional-unit Rulers are only *precise* if each stressor
saturates exactly one execution port (Figure 1 / Table 1: FP_MUL on
port 0, FP_ADD on port 1, FP_SHF on port 5, INT_ADD spread over
0/1/5). A kernel that leaks even one uop kind onto a second port stops
isolating its sharing dimension, and every sensitivity curve measured
with it becomes a blend.

This rule triggers on any linted module that defines ``FU_LISTINGS``
(a mapping of functional-unit :class:`~repro.rulers.base.Dimension` to
an assembly listing). It loads the module, walks each listing through
the real ISA layer — :func:`repro.isa.asmtext.parse_asm` for the
kernel, :data:`repro.isa.opcodes.PORT_BINDINGS` for the port map — and
verifies:

- **SMT501 (port purity)**: every uop in the kernel body binds only to
  the dimension's allowed port set; and
- **SMT502 (branch purity)**: the loop back-edge stays under the
  paper's 0.01% branch-fraction budget at the module's unroll factor.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from typing import Any, Mapping

from repro.lint.registry import Rule, register

__all__ = ["PortPurity", "BranchPurityBudget", "load_fu_listings",
           "BRANCH_FRACTION_BUDGET"]

#: The paper's loop-branch purity budget: >99.99% of the dynamic stream
#: must be the port-specific instruction (Section III-B1).
BRANCH_FRACTION_BUDGET = 1e-4

_TRIGGER = "FU_LISTINGS"


def _listings_assignment(tree: ast.Module) -> int:
    """Line of the module-level ``FU_LISTINGS`` assignment, or 0."""
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == _TRIGGER:
                return node.lineno
    return 0


def load_fu_listings(path) -> Mapping[Any, str]:
    """Import the module at ``path`` and return its ``FU_LISTINGS``.

    The module is imported under a synthetic name so linting a fixture
    copy never shadows the real :mod:`repro.rulers.functional_unit`.
    """
    module_name = f"_smite_lint_fu_{abs(hash(str(path)))}"
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
        return getattr(module, _TRIGGER)
    finally:
        sys.modules.pop(module_name, None)


def _allowed_ports(dimension: Any) -> tuple[int, ...] | None:
    """The port set a functional-unit dimension may occupy, else None."""
    from repro.isa.opcodes import FUNCTIONAL_UNIT_PORTS

    target = getattr(dimension, "target_port", None)
    if target is not None:
        return (target,)
    if getattr(dimension, "is_functional_unit", False):
        return FUNCTIONAL_UNIT_PORTS  # INT_ADD: any of ports 0/1/5
    return None


class _ListingRule(Rule):
    """Shared FU_LISTINGS discovery/loading for the two purity rules."""

    def _kernels(self, ctx):
        """Yield (dimension, allowed ports, kernel) per FU listing."""
        line = _listings_assignment(ctx.tree)
        if line == 0:
            return
        from repro.isa.asmtext import parse_asm

        try:
            listings = load_fu_listings(ctx.path)
        except Exception as exc:  # noqa: BLE001 - any import failure is one
            ctx.report(self, f"module defines {_TRIGGER} but could not be "
                             f"loaded for kernel verification: {exc}",
                       line=line)
            return
        self._line = line
        for dimension, listing in listings.items():
            allowed = _allowed_ports(dimension)
            if allowed is None:
                ctx.report(self, f"{_TRIGGER} key {dimension!r} is not a "
                                 "functional-unit dimension", line=line)
                continue
            name = getattr(dimension, "value", str(dimension))
            try:
                kernel = parse_asm(listing, name=f"lint-{name}")
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                ctx.report(self, f"listing for {name} does not parse: "
                                 f"{exc}", line=line)
                continue
            yield dimension, allowed, kernel


@register
class PortPurity(_ListingRule):
    """Each FU Ruler's uop mix must stay on its one allowed port (set)."""

    id = "SMT501"
    family = "ports"
    summary = ("functional-unit Ruler kernel leaks uops onto a port "
               "outside its dimension's Table-1 binding")

    def check_module(self, ctx) -> None:
        from repro.isa.opcodes import PORT_BINDINGS, UopKind

        for dimension, allowed, kernel in self._kernels(ctx):
            name = getattr(dimension, "value", str(dimension))
            occupied: set[int] = set()
            for instruction in kernel.body:
                kind = instruction.kind
                if kind is UopKind.NOP:
                    continue  # a NOP occupies no execution port
                ports = set(PORT_BINDINGS[kind])
                occupied |= ports
                leaked = ports - set(allowed)
                if leaked:
                    ctx.report(
                        self,
                        f"Ruler for {name} leaks onto port(s) "
                        f"{sorted(leaked)}: {kind.name} binds to "
                        f"{sorted(ports)} but the dimension allows only "
                        f"{sorted(allowed)}", line=self._line)
            if not occupied:
                ctx.report(self, f"Ruler for {name} occupies no execution "
                                 "port; the kernel stresses nothing",
                           line=self._line)


@register
class BranchPurityBudget(_ListingRule):
    """The loop branch must stay under the 0.01% dynamic-stream budget."""

    id = "SMT502"
    family = "ports"
    summary = ("FU Ruler's loop-branch fraction exceeds the paper's "
               "0.01% purity budget at the module's unroll factor")

    def check_module(self, ctx) -> None:
        for dimension, _, kernel in self._kernels(ctx):
            name = getattr(dimension, "value", str(dimension))
            module_unroll = self._module_unroll(ctx)
            sized = kernel.with_unroll(module_unroll) \
                if module_unroll else kernel
            fraction = 1.0 / sized.instructions_per_iteration
            if fraction > BRANCH_FRACTION_BUDGET:
                ctx.report(
                    self,
                    f"Ruler for {name}: loop-branch fraction "
                    f"{fraction:.2%} exceeds the "
                    f"{BRANCH_FRACTION_BUDGET:.2%} purity budget "
                    f"(body {len(kernel.body)} x unroll {sized.unroll}); "
                    "raise UNROLL", line=self._line)

    @staticmethod
    def _module_unroll(ctx) -> int:
        """The module's UNROLL constant, read statically (0 if absent)."""
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == "UNROLL"
                            and isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, int)):
                        return node.value.value
        return 0
