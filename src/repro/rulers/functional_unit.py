"""Functional-unit Rulers, authored as the Figure 9(a-d) assembly listings.

Each listing follows the paper's two design moves: *port-specific
instructions* confine the pressure to one execution port, and *register
rotation plus loop unrolling* removes data dependencies so the port runs
at full occupancy (we rotate through eight registers — more chains than
any uop latency — and unroll until the loop branch is under 0.01% of the
dynamic stream, matching the paper's >99.99% validated port utilization).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.isa import analyze_kernel, parse_asm
from repro.isa.kernel import Kernel
from repro.rulers.base import Dimension, Ruler

__all__ = ["FU_LISTINGS", "fu_kernel", "functional_unit_ruler",
           "functional_unit_rulers", "UNROLL"]

#: Unroll factor: 8 instructions/body * 5000 = 40,000 per loop branch,
#: keeping the branch safely below the paper's 0.01% purity budget even
#: after simulated-PMU counter bias.
UNROLL = 5000

_XMM = [f"%xmm{i}" for i in range(8)]
_GPR = ["%eax", "%ebx", "%ecx", "%edx", "%esi", "%edi", "%r8d", "%r9d"]


def _fu_listing(mnemonic: str, registers: list[str]) -> str:
    lines = ["loop:"]
    lines += [f"    {mnemonic}  {reg}, {reg}" for reg in registers]
    lines.append("    jmp loop")
    return "\n".join(lines)


#: The four listings, in the paper's Figure 9 order.
FU_LISTINGS: dict[Dimension, str] = {
    Dimension.FP_MUL: _fu_listing("mulps", _XMM),    # port 0
    Dimension.FP_ADD: _fu_listing("addps", _XMM),    # port 1
    Dimension.FP_SHF: _fu_listing("shufps", _XMM),   # port 5
    Dimension.INT_ADD: _fu_listing("addl", _GPR),    # ports 0, 1, 5
}


def fu_kernel(dimension: Dimension, *, unroll: int = UNROLL) -> Kernel:
    """The kernel for a functional-unit dimension's Ruler."""
    listing = FU_LISTINGS.get(dimension)
    if listing is None:
        raise ConfigurationError(
            f"{dimension} is not a functional-unit dimension"
        )
    return parse_asm(listing, name=f"ruler-{dimension.value}", unroll=unroll)


def functional_unit_ruler(dimension: Dimension, *,
                          intensity: float = 1.0,
                          unroll: int = UNROLL) -> Ruler:
    """Build one functional-unit Ruler at the given duty-cycle intensity."""
    profile = analyze_kernel(fu_kernel(dimension, unroll=unroll))
    ruler = Ruler(dimension=dimension, profile=profile, intensity=1.0)
    if intensity != 1.0:
        ruler = ruler.at_intensity(intensity)
    return ruler


def functional_unit_rulers(*, unroll: int = UNROLL) -> dict[Dimension, Ruler]:
    """All four functional-unit Rulers at full intensity."""
    return {
        dim: functional_unit_ruler(dim, unroll=unroll)
        for dim in (Dimension.FP_MUL, Dimension.FP_ADD,
                    Dimension.FP_SHF, Dimension.INT_ADD)
    }
