"""Unit tests for kernels and instructions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.isa import analyze_kernel
from repro.isa.kernel import Instruction, Kernel, MemRef
from repro.isa.opcodes import UopKind, is_memory_kind
from repro.rulers.base import Dimension
from repro.rulers.functional_unit import UNROLL, fu_kernel
from repro.rulers.memory import MEM_UNROLL, memory_kernel
from repro.smt.params import IVY_BRIDGE


def _mul(reg: str) -> Instruction:
    return Instruction(kind=UopKind.FP_MUL, dest=reg, sources=(reg, reg))


def _load(footprint=4096) -> Instruction:
    return Instruction(kind=UopKind.LOAD, dest="%eax",
                       mem=MemRef(footprint_bytes=footprint))


class TestMemRef:
    def test_defaults(self):
        ref = MemRef(footprint_bytes=1024)
        assert ref.pattern == "random"
        assert ref.stride_bytes == 64

    def test_nonpositive_footprint_rejected(self):
        with pytest.raises(ConfigurationError):
            MemRef(footprint_bytes=0)

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            MemRef(footprint_bytes=64, stride_bytes=0)


class TestInstruction:
    def test_memory_kind_requires_memref(self):
        with pytest.raises(ConfigurationError):
            Instruction(kind=UopKind.LOAD, dest="%eax")

    def test_compute_kind_rejects_memref(self):
        with pytest.raises(ConfigurationError):
            Instruction(kind=UopKind.FP_ADD, dest="%xmm0",
                        mem=MemRef(footprint_bytes=64))

    def test_registers(self):
        instr = _mul("%xmm3")
        assert instr.registers == ("%xmm3", "%xmm3", "%xmm3")


class TestKernel:
    def test_iterate_appends_loop_branch(self):
        kernel = Kernel(name="k", body=(_mul("%xmm0"),))
        kinds = [i.kind for i in kernel.iterate()]
        assert kinds == [UopKind.FP_MUL, UopKind.BRANCH]

    def test_unroll_repeats_body(self):
        kernel = Kernel(name="k", body=(_mul("%xmm0"),), unroll=10)
        assert kernel.instructions_per_iteration == 11

    def test_count_kinds(self):
        kernel = Kernel(name="k", body=(_mul("%xmm0"), _load()), unroll=3)
        counts = kernel.count_kinds()
        assert counts[UopKind.FP_MUL] == 3
        assert counts[UopKind.LOAD] == 3
        assert counts[UopKind.BRANCH] == 1

    def test_distinct_destinations(self):
        kernel = Kernel(name="k", body=(
            _mul("%xmm0"), _mul("%xmm1"), _mul("%xmm0"),
        ))
        assert kernel.distinct_destinations(UopKind.FP_MUL) == 2
        assert kernel.distinct_destinations(UopKind.INT_ALU) == 0

    def test_memory_references_deduplicated(self):
        kernel = Kernel(name="k", body=(_load(64), _load(64), _load(128)))
        refs = kernel.memory_references()
        assert [r.footprint_bytes for r in refs] == [64, 128]

    def test_with_unroll(self):
        kernel = Kernel(name="k", body=(_mul("%xmm0"),))
        assert kernel.with_unroll(5).unroll == 5
        assert kernel.with_unroll(5).name == "k"

    def test_empty_body_rejected(self):
        with pytest.raises(ConfigurationError):
            Kernel(name="k", body=())

    def test_unnamed_rejected(self):
        with pytest.raises(ConfigurationError):
            Kernel(name="", body=(_mul("%xmm0"),))

    def test_bad_unroll_rejected(self):
        with pytest.raises(ConfigurationError):
            Kernel(name="k", body=(_mul("%xmm0"),), unroll=0)


def _iterated_counts(kernel: Kernel) -> dict[UopKind, int]:
    """Oracle: count kinds by walking the whole unrolled iteration."""
    counts: dict[UopKind, int] = {}
    for instr in kernel.iterate():
        counts[instr.kind] = counts.get(instr.kind, 0) + 1
    return counts


def _assert_counts_match(kernel: Kernel) -> None:
    closed = kernel.count_kinds()
    oracle = _iterated_counts(kernel)
    assert closed == oracle
    assert list(closed) == list(oracle)


_FU_DIMENSIONS = (Dimension.FP_MUL, Dimension.FP_ADD, Dimension.FP_SHF,
                  Dimension.INT_ADD)
_MEM_DIMENSIONS = (Dimension.L1, Dimension.L2, Dimension.L3)


#: (functional-unit, memory) unroll factors: the Rulers' own, and none.
_UNROLLS = [(UNROLL, MEM_UNROLL), (1, 1)]
_UNROLL_IDS = ["ruler-unroll", "unroll-1"]


def _ruler_kernels(unroll_fu: int, unroll_mem: int) -> list[Kernel]:
    return ([fu_kernel(dim, unroll=unroll_fu) for dim in _FU_DIMENSIONS]
            + [memory_kernel(dim, IVY_BRIDGE, unroll=unroll_mem)
               for dim in _MEM_DIMENSIONS])


def _instruction(kind: UopKind, reg: int) -> Instruction:
    mem = MemRef(footprint_bytes=4096) if is_memory_kind(kind) else None
    dest = f"%r{reg}" if kind is not UopKind.BRANCH else ""
    return Instruction(kind=kind, dest=dest, sources=(f"%r{reg}",), mem=mem)


bodies = st.lists(
    st.builds(_instruction, st.sampled_from(list(UopKind)),
              st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=12,
)


class TestCountKindsClosedForm:
    @pytest.mark.parametrize("unrolls", _UNROLLS, ids=_UNROLL_IDS)
    def test_ruler_kernels_match_iteration(self, unrolls):
        for kernel in _ruler_kernels(*unrolls):
            _assert_counts_match(kernel)

    def test_explicit_branch_keeps_body_position(self):
        branch = Instruction(kind=UopKind.BRANCH)
        kernel = Kernel(name="k", body=(branch, _mul("%xmm0")), unroll=4)
        assert list(kernel.count_kinds().items()) == [
            (UopKind.BRANCH, 5), (UopKind.FP_MUL, 4)]
        _assert_counts_match(kernel)

    @settings(max_examples=60, deadline=None)
    @given(bodies, st.integers(min_value=1, max_value=50))
    def test_random_bodies_match_iteration(self, body, unroll):
        _assert_counts_match(Kernel(name="k", body=tuple(body), unroll=unroll))

    @pytest.mark.parametrize("unrolls", _UNROLLS, ids=_UNROLL_IDS)
    def test_analyze_kernel_unchanged_by_closed_form(self, unrolls,
                                                     monkeypatch):
        kernels = _ruler_kernels(*unrolls)
        closed = [analyze_kernel(k) for k in kernels]
        monkeypatch.setattr(Kernel, "count_kinds", _iterated_counts)
        iterated = [analyze_kernel(k) for k in kernels]
        for a, b in zip(closed, iterated):
            assert a == b
            assert a.dependency_factor.hex() == b.dependency_factor.hex()
