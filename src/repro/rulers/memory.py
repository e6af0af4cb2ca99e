"""Memory-subsystem Rulers, shaped after Figure 9(e) and 9(f).

The L1 and L2 Rulers are the same kernel with different working-set sizes
(the paper uses one binary with different FOOTPRINT values): each access
is ``data_chunk[RAND % FOOTPRINT]++`` — an LFSR draw (modelled as ALU
uops), a load, an increment, and a store — randomly scattered over the
footprint. The L3 Ruler streams with a cache-line stride, reading one half
of the footprint and writing the other, per Figure 9(f). All are unrolled
so the loop branch is negligible.

Complete decoupling is impossible here (issuing accesses costs ALU work,
and a larger-footprint Ruler necessarily sweeps the smaller caches too);
the paper leans on the regression model to separate the overlap, and so
do we.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.isa import analyze_kernel, parse_asm
from repro.isa.kernel import Kernel
from repro.rulers.base import Dimension, Ruler
from repro.smt.params import MachineSpec

__all__ = ["memory_kernel", "memory_ruler", "memory_rulers", "MEM_UNROLL"]

#: 5-6 instructions per access block, x400 blocks per loop branch.
MEM_UNROLL = 400

_MEMORY_DIMENSIONS = (Dimension.L1, Dimension.L2, Dimension.L3)


def _lfsr_listing(footprint_bytes: int) -> str:
    """The Figure 9(e) random-access ruler: data_chunk[RAND % FOOTPRINT]++.

    The two ALU ops carry the serial LFSR state in %eax — the address of
    every access depends on it, which is what keeps the real stressor from
    flooding the ALU ports at full front-end speed.
    """
    return "\n".join([
        "loop:",
        "    addl  %eax, %eax            # lfsr >>= 1 (serial state)",
        "    addl  %eax, %eax            # lfsr ^= -(lfsr & 1) & MASK",
        f"    movl  [footprint={footprint_bytes},pattern=random,addr=%eax], %ecx",
        "    addl  %ecx, %ecx            # the ++ increment",
        f"    movl  %ecx, [footprint={footprint_bytes},pattern=random,addr=%eax]",
        "    jmp loop",
    ])


def _stride_listing(footprint_bytes: int) -> str:
    """The Figure 9(f) stride ruler: first_chunk[i] = second_chunk[i] + 1."""
    return "\n".join([
        "loop:",
        f"    movl  [footprint={footprint_bytes},pattern=stride,stride=64,addr=%ebx], %eax",
        "    addl  %eax, %eax            # + 1",
        f"    movl  %eax, [footprint={footprint_bytes},pattern=stride,stride=64,addr=%ebx]",
        "    addl  %ebx, %ebx            # i += 64 (serial index)",
        "    jmp loop",
    ])


def memory_kernel(dimension: Dimension, machine: MachineSpec, *,
                  footprint_bytes: int | None = None,
                  unroll: int = MEM_UNROLL) -> Kernel:
    """The kernel for a memory dimension's Ruler on a given machine.

    The default footprint is the target cache's full capacity — the top of
    the sensitivity curve the paper interpolates over.
    """
    if dimension not in _MEMORY_DIMENSIONS:
        raise ConfigurationError(f"{dimension} is not a memory dimension")
    if footprint_bytes is None:
        footprint_bytes = {
            Dimension.L1: machine.l1d.size_bytes,
            Dimension.L2: machine.l2.size_bytes,
            Dimension.L3: machine.l3.size_bytes,
        }[dimension]
    if footprint_bytes <= 0:
        raise ConfigurationError("footprint must be positive")
    if dimension is Dimension.L3:
        listing = _stride_listing(footprint_bytes)
    else:
        listing = _lfsr_listing(footprint_bytes)
    return parse_asm(listing, name=f"ruler-{dimension.value}", unroll=unroll)


#: Fixed pacing (idle cycles per instruction) for the L1/L2 rulers. The
#: real stressor's speed depends on how much of its working set stays
#: resident, which couples its functional-unit pressure to the victim's
#: cache behaviour — the opposite of decoupled measurement. Pacing the
#: loop (a spin-wait between accesses) pins the issue rate so working-set
#: size is the ruler's *only* moving part; its capacity pressure is
#: unchanged because LRU occupancy follows the access mix, not the rate.
LFSR_RULER_PACE_CPI = 0.8


def memory_ruler(dimension: Dimension, machine: MachineSpec, *,
                 intensity: float = 1.0,
                 unroll: int = MEM_UNROLL) -> Ruler:
    """Build one memory Ruler; intensity scales the working set."""
    profile = analyze_kernel(memory_kernel(dimension, machine, unroll=unroll))
    if dimension in (Dimension.L1, Dimension.L2):
        profile = profile.replace(throttle_cpi=LFSR_RULER_PACE_CPI)
    ruler = Ruler(dimension=dimension, profile=profile, intensity=1.0)
    if intensity != 1.0:
        ruler = ruler.at_intensity(intensity)
    return ruler


def memory_rulers(machine: MachineSpec, *,
                  unroll: int = MEM_UNROLL) -> dict[Dimension, Ruler]:
    """The three memory Rulers at full (cache-sized) working sets."""
    return {
        dim: memory_ruler(dim, machine, unroll=unroll)
        for dim in _MEMORY_DIMENSIONS
    }
