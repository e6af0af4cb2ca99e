"""Tests for the Ruler implementations and their design properties."""

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.isa.opcodes import UopKind
from repro.rulers.base import Dimension
from repro.rulers.functional_unit import (
    FU_LISTINGS,
    fu_kernel,
    functional_unit_ruler,
    functional_unit_rulers,
)
from repro.rulers.memory import memory_kernel, memory_ruler, memory_rulers
from repro.rulers.suite import default_suite, intensity_sweep
from repro.rulers.validation import validate_linearity, validate_purity
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.workloads.spec import spec_even


class TestFunctionalUnitRulers:
    def test_listings_parse_for_all_dimensions(self):
        assert set(FU_LISTINGS) == {Dimension.FP_MUL, Dimension.FP_ADD,
                                    Dimension.FP_SHF, Dimension.INT_ADD}
        for dim in FU_LISTINGS:
            kernel = fu_kernel(dim)
            assert kernel.instructions_per_iteration > 10_000

    def test_fp_mul_ruler_is_pure_mul(self):
        profile = functional_unit_ruler(Dimension.FP_MUL).profile
        assert profile.fp_mul > 0.9999
        assert profile.accesses_per_instruction == 0.0

    def test_int_ruler_is_pure_int(self):
        profile = functional_unit_ruler(Dimension.INT_ADD).profile
        assert profile.int_alu > 0.9999

    def test_memory_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            fu_kernel(Dimension.L1)

    def test_all_four_built(self):
        assert len(functional_unit_rulers()) == 4

    def test_saturates_target_port(self, clean_sim):
        """The design goal: 100% utilization of the stressed port."""
        for dim in (Dimension.FP_MUL, Dimension.FP_ADD, Dimension.FP_SHF):
            ruler = functional_unit_ruler(dim)
            result = clean_sim.run_solo(ruler.profile)
            assert result.port_utilization[dim.target_port] == pytest.approx(
                1.0, abs=1e-3
            )


class TestMemoryRulers:
    def test_footprints_default_to_cache_sizes(self):
        rulers = memory_rulers(IVY_BRIDGE)
        assert rulers[Dimension.L1].profile.total_footprint_bytes == \
            IVY_BRIDGE.l1d.size_bytes
        assert rulers[Dimension.L2].profile.total_footprint_bytes == \
            IVY_BRIDGE.l2.size_bytes
        assert rulers[Dimension.L3].profile.total_footprint_bytes == \
            IVY_BRIDGE.l3.size_bytes

    def test_machine_specific_l3(self):
        ivy = memory_ruler(Dimension.L3, IVY_BRIDGE)
        snb = memory_ruler(Dimension.L3, SANDY_BRIDGE_EN)
        assert (snb.profile.total_footprint_bytes
                > ivy.profile.total_footprint_bytes)

    def test_l1_l2_same_shape_different_footprint(self):
        """The paper uses one binary with different FOOTPRINT values."""
        l1 = memory_ruler(Dimension.L1, IVY_BRIDGE).profile
        l2 = memory_ruler(Dimension.L2, IVY_BRIDGE).profile
        assert l1.load == l2.load
        assert l1.int_alu == l2.int_alu
        assert l1.total_footprint_bytes != l2.total_footprint_bytes

    def test_l3_ruler_strides(self):
        kernel = memory_kernel(Dimension.L3, IVY_BRIDGE)
        refs = kernel.memory_references()
        assert all(r.pattern == "stride" for r in refs)
        assert all(r.stride_bytes == 64 for r in refs)

    def test_l1_ruler_random(self):
        kernel = memory_kernel(Dimension.L1, IVY_BRIDGE)
        assert all(r.pattern == "random" for r in kernel.memory_references())

    def test_fu_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            memory_kernel(Dimension.FP_MUL, IVY_BRIDGE)

    def test_loads_and_stores_balanced(self):
        """Figure 9(e) is a read-modify-write per access."""
        profile = memory_ruler(Dimension.L1, IVY_BRIDGE).profile
        assert profile.load == pytest.approx(profile.store)


class TestSuite:
    def test_default_suite_complete(self):
        suite = default_suite(IVY_BRIDGE)
        assert len(suite) == 7

    def test_intensity_sweep_spacing(self, ivy_rulers):
        sweep = intensity_sweep(ivy_rulers[Dimension.FP_MUL], points=4)
        assert [r.intensity for r in sweep] == pytest.approx(
            [0.25, 0.5, 0.75, 1.0]
        )

    def test_sweep_needs_two_points(self, ivy_rulers):
        with pytest.raises(ValueError):
            intensity_sweep(ivy_rulers[Dimension.L1], points=1)


class TestValidation:
    def test_purity_passes_for_all_fu_rulers(self, ivy_sim, ivy_rulers):
        purities = [validate_purity(ivy_rulers[dim], ivy_sim).purity
                    for dim in ivy_rulers if dim.is_functional_unit]
        assert len(purities) == 4
        assert all(p >= 0.9999 for p in purities)

    def test_purity_rejects_memory_rulers(self, ivy_sim, ivy_rulers):
        with pytest.raises(ValidationError):
            validate_purity(ivy_rulers[Dimension.L1], ivy_sim)

    def test_linearity_for_memory_rulers(self, ivy_sim, ivy_rulers):
        victims = spec_even()[:8]
        for dim in (Dimension.L1, Dimension.L3):
            value = validate_linearity(ivy_rulers[dim], ivy_sim, victims,
                                       points=4)
            assert value >= 0.85

    def test_linearity_needs_victims(self, ivy_sim, ivy_rulers):
        with pytest.raises(ValidationError):
            validate_linearity(ivy_rulers[Dimension.L1], ivy_sim, [])
