"""Kernels: loops of abstract instructions used to author Rulers.

A :class:`Kernel` is an infinite loop over a fixed body — the shape of every
stressor in the paper's Figure 9. The kernel representation carries enough
structure (registers, memory references, access patterns) for the analyzer
to derive a workload profile: uop mix, attainable instruction-level
parallelism, and memory footprint strata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal

from repro.errors import ConfigurationError
from repro.isa.opcodes import UopKind, is_memory_kind

__all__ = ["MemRef", "Instruction", "Kernel"]

AccessPattern = Literal["random", "stride"]


@dataclass(frozen=True)
class MemRef:
    """A memory reference made by an instruction.

    ``footprint_bytes`` is the size of the region the reference walks over
    (the Ruler's FOOTPRINT constant); ``pattern`` is how it walks it —
    ``random`` for the LFSR-driven L1/L2 rulers of Figure 9(e), ``stride``
    for the cache-line-stride L3 ruler of Figure 9(f).
    """

    footprint_bytes: int
    pattern: AccessPattern = "random"
    stride_bytes: int = 64

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ConfigurationError(
                f"memory footprint must be positive, got {self.footprint_bytes}"
            )
        if self.stride_bytes <= 0:
            raise ConfigurationError(
                f"stride must be positive, got {self.stride_bytes}"
            )


@dataclass(frozen=True)
class Instruction:
    """One abstract instruction: a uop kind plus its register/memory operands."""

    kind: UopKind
    dest: str = ""
    sources: tuple[str, ...] = ()
    mem: MemRef | None = None

    def __post_init__(self) -> None:
        if self.mem is not None and not is_memory_kind(self.kind):
            raise ConfigurationError(
                f"{self.kind.name} instructions cannot carry a memory reference"
            )
        if is_memory_kind(self.kind) and self.mem is None:
            raise ConfigurationError(
                f"{self.kind.name} instructions require a memory reference"
            )

    @property
    def registers(self) -> tuple[str, ...]:
        regs = tuple(r for r in (self.dest, *self.sources) if r)
        return regs


@dataclass(frozen=True)
class Kernel:
    """A named infinite loop over ``body``, optionally unrolled.

    ``unroll`` repeats the body that many times per loop back-edge —
    exactly the loop unrolling Figure 9 applies to minimize the branch
    fraction of the memory rulers.
    """

    name: str
    body: tuple[Instruction, ...] = field(default_factory=tuple)
    unroll: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("kernels must be named")
        if not self.body:
            raise ConfigurationError(f"kernel {self.name!r} has an empty body")
        if self.unroll < 1:
            raise ConfigurationError(
                f"unroll factor must be >= 1, got {self.unroll}"
            )

    def iterate(self) -> Iterator[Instruction]:
        """Yield one full unrolled iteration, including the loop branch."""
        for _ in range(self.unroll):
            yield from self.body
        yield Instruction(kind=UopKind.BRANCH)

    @property
    def instructions_per_iteration(self) -> int:
        """Dynamic instructions per loop iteration (body × unroll + branch)."""
        return len(self.body) * self.unroll + 1

    def count_kinds(self) -> dict[UopKind, int]:
        """Dynamic uop-kind counts over one unrolled iteration.

        Closed form of counting over :meth:`iterate`: the body's counts
        times ``unroll``, plus the loop branch. Keys keep the order of
        first appearance in the iteration.
        """
        counts: dict[UopKind, int] = {}
        for instr in self.body:
            counts[instr.kind] = counts.get(instr.kind, 0) + 1
        for kind in counts:
            counts[kind] *= self.unroll
        counts[UopKind.BRANCH] = counts.get(UopKind.BRANCH, 0) + 1
        return counts

    def distinct_destinations(self, kind: UopKind) -> int:
        """Number of distinct destination registers written by ``kind`` uops.

        This is the analyzer's proxy for the number of independent
        dependency chains: the Figure 9 stressors rotate through xmm0..xmm7
        precisely to create eight independent chains.
        """
        dests = {
            instr.dest
            for instr in self.body
            if instr.kind is kind and instr.dest
        }
        return len(dests)

    def memory_references(self) -> tuple[MemRef, ...]:
        """All distinct memory references in the body, in program order."""
        refs: list[MemRef] = []
        seen: set[tuple[int, str, int]] = set()
        for instr in self.body:
            if instr.mem is None:
                continue
            key = (instr.mem.footprint_bytes, instr.mem.pattern,
                   instr.mem.stride_bytes)
            if key not in seen:
                seen.add(key)
                refs.append(instr.mem)
        return tuple(refs)

    def with_unroll(self, unroll: int) -> "Kernel":
        """A copy of this kernel at a different unroll factor."""
        return Kernel(name=self.name, body=self.body, unroll=unroll)

