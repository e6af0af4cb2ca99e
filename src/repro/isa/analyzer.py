"""Static analysis turning a kernel into a workload profile.

The Ruler design principles of Section III-B1 — port-specific instructions,
dependency removal via register rotation, loop unrolling to suppress the
branch fraction — are all *observable* properties of a kernel. The analyzer
extracts them:

- uop mix: dynamic kind counts over one unrolled iteration;
- dependency factor: whether each compute kind exposes enough independent
  chains (distinct destination registers) to cover its result latency;
- footprint strata: from the kernel's memory references;
- MLP: address-independent kernels (the Figure 9 stressors) overlap misses
  up to the machine's miss-queue depth.
"""

from __future__ import annotations

from repro.isa.kernel import Kernel
from repro.isa.opcodes import UOP_LATENCY, UopKind
from repro.workloads.profile import FootprintStratum, Suite, WorkloadProfile

__all__ = ["analyze_kernel"]

#: MLP granted to stressor kernels whose accesses are address-independent.
_STRESSOR_MLP = 8.0

#: Iterations of the dataflow simulation; chains reach steady state fast.
_STEADY_STATE_ITERATIONS = 8


def _steady_state_dep_cpi(kernel: Kernel) -> float:
    """Loop-carried critical-path cycles per instruction.

    Simulates the body's dataflow with register renaming (an instruction
    starts when all its *source* registers are ready; writing a register
    starts a fresh value, so write-after-write never serializes) for a few
    iterations and reads off the steady-state growth of the longest chain.
    This is what makes a serial LFSR update throttle the Figure 9(e)
    ruler while eight rotated xmm registers leave Figure 9(a-d) rulers
    port-bound, exactly as the paper's dependency-removal principle
    intends.
    """
    ready: dict[str, float] = {}
    previous_end = 0.0
    delta = 0.0
    for _ in range(_STEADY_STATE_ITERATIONS):
        for instr in kernel.body:
            start = max((ready.get(reg, 0.0) for reg in instr.sources),
                        default=0.0)
            done = start + UOP_LATENCY[instr.kind]
            if instr.dest:
                ready[instr.dest] = done
        end = max(ready.values(), default=0.0)
        delta = end - previous_end
        previous_end = end
    return delta / len(kernel.body)  # Kernel validates a non-empty body


def _dependency_factor(kernel: Kernel) -> float:
    """Serialized fraction: steady-state chain CPI over the full uop path."""
    dep_cpi = _steady_state_dep_cpi(kernel)
    if dep_cpi <= 0.0:
        return 0.0
    counts = kernel.count_kinds()
    n_instr = kernel.instructions_per_iteration
    path = sum(  # instructions_per_iteration = body*unroll + 1 >= 1
        count * UOP_LATENCY[kind] for kind, count in counts.items()
    ) / n_instr
    if path <= 0.0:
        return 0.0
    return min(1.0, dep_cpi / path)


def _strata(kernel: Kernel, counts: dict[UopKind, int]) -> tuple[FootprintStratum, ...]:
    refs = kernel.memory_references()
    if not refs or (counts.get(UopKind.LOAD, 0) + counts.get(UopKind.STORE, 0)) == 0:
        return ()
    # Accesses split across references in proportion to their static counts;
    # Figure 9 rulers have a single reference, so this is usually one stratum.
    per_ref: dict[float, int] = {}
    for instr in kernel.body:
        if instr.mem is None:
            continue
        per_ref[instr.mem.footprint_bytes] = per_ref.get(instr.mem.footprint_bytes, 0) + 1
    total = sum(per_ref.values())
    strata = [
        FootprintStratum(footprint_bytes=fp, access_fraction=n / total)
        for fp, n in sorted(per_ref.items())
    ]
    # Guard against floating-point drift in the fraction sum.
    drift = 1.0 - sum(s.access_fraction for s in strata)
    if abs(drift) > 1e-12:
        last = strata[-1]
        strata[-1] = FootprintStratum(
            footprint_bytes=last.footprint_bytes,
            access_fraction=last.access_fraction + drift,
        )
    return tuple(strata)


def analyze_kernel(kernel: Kernel, *, suite: Suite = Suite.RULER) -> WorkloadProfile:
    """Derive a :class:`WorkloadProfile` from a kernel's static structure."""
    counts = kernel.count_kinds()
    n_instr = kernel.instructions_per_iteration
    rate = {kind: counts.get(kind, 0) / n_instr for kind in UopKind}  # instructions_per_iteration = body*unroll + 1 >= 1
    has_memory = (counts.get(UopKind.LOAD, 0) + counts.get(UopKind.STORE, 0)) > 0

    return WorkloadProfile(
        name=kernel.name,
        suite=suite,
        fp_mul=rate[UopKind.FP_MUL],
        fp_add=rate[UopKind.FP_ADD],
        fp_shf=rate[UopKind.FP_SHF],
        int_alu=rate[UopKind.INT_ALU],
        load=rate[UopKind.LOAD],
        store=rate[UopKind.STORE],
        branch=rate[UopKind.BRANCH],
        nop=rate[UopKind.NOP],
        dependency_factor=_dependency_factor(kernel),
        mlp=_STRESSOR_MLP if has_memory else 1.0,
        strata=_strata(kernel, counts),
        # The single loop back-edge is a perfectly predicted branch.
        branch_misprediction_rate=0.0,
        itlb_mpki=0.0,
        dtlb_mpki=0.05 if has_memory else 0.0,
        icache_mpki=0.0,
        description=f"analyzed from kernel {kernel.name!r} "
                    f"(unroll {kernel.unroll}, {n_instr} instructions/iteration)",
    )
