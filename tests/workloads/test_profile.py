"""Unit tests for WorkloadProfile validation and derived quantities."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.opcodes import UopKind
from repro.workloads.profile import FootprintStratum, Suite, WorkloadProfile


def make_profile(**overrides):
    base = dict(
        name="test-app",
        suite=Suite.SYNTHETIC,
        int_alu=0.4,
        load=0.3,
        store=0.1,
        branch=0.15,
        strata=(FootprintStratum(footprint_bytes=32 * 1024,
                                 access_fraction=1.0),),
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestValidation:
    def test_valid_profile(self):
        profile = make_profile()
        assert profile.name == "test-app"

    def test_unnamed_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(name="")

    def test_negative_uop_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(fp_mul=-0.1)

    def test_zero_uops_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(int_alu=0, load=0, store=0, branch=0, strata=())

    def test_excessive_uop_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(int_alu=5.0)

    def test_dependency_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            make_profile(dependency_factor=1.5)
        with pytest.raises(ConfigurationError):
            make_profile(dependency_factor=-0.1)

    def test_mlp_minimum(self):
        with pytest.raises(ConfigurationError):
            make_profile(mlp=0.5)

    def test_memory_profile_needs_strata(self):
        with pytest.raises(ConfigurationError):
            make_profile(strata=())

    def test_strata_without_accesses_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(load=0.0, store=0.0)

    def test_stratum_fractions_must_sum_to_one(self):
        bad = (
            FootprintStratum(footprint_bytes=1024, access_fraction=0.5),
            FootprintStratum(footprint_bytes=2048, access_fraction=0.4),
        )
        with pytest.raises(ConfigurationError):
            make_profile(strata=bad)

    def test_negative_throttle_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(throttle_cpi=-1.0)

    def test_bmr_bounds(self):
        with pytest.raises(ConfigurationError):
            make_profile(branch_misprediction_rate=0.6)


class TestStratum:
    def test_zero_footprint_rejected(self):
        with pytest.raises(ConfigurationError):
            FootprintStratum(footprint_bytes=0, access_fraction=1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            FootprintStratum(footprint_bytes=64, access_fraction=0.0)
        with pytest.raises(ConfigurationError):
            FootprintStratum(footprint_bytes=64, access_fraction=1.5)


class TestDerived:
    def test_uops_mapping_skips_zero(self):
        profile = make_profile()
        assert UopKind.FP_MUL not in profile.uops
        assert profile.uops[UopKind.INT_ALU] == 0.4

    def test_uops_per_instruction(self):
        assert make_profile().uops_per_instruction == pytest.approx(0.95)

    def test_accesses_per_instruction(self):
        assert make_profile().accesses_per_instruction == pytest.approx(0.4)

    def test_total_footprint(self):
        strata = (
            FootprintStratum(footprint_bytes=1024, access_fraction=0.5),
            FootprintStratum(footprint_bytes=8192, access_fraction=0.5),
        )
        assert make_profile(strata=strata).total_footprint_bytes == 8192

    def test_parity(self):
        assert make_profile(spec_number=400).is_even_numbered
        assert not make_profile(spec_number=401).is_even_numbered

    def test_parity_requires_number(self):
        with pytest.raises(ConfigurationError):
            _ = make_profile().is_even_numbered

    def test_is_floating_point(self):
        assert make_profile(fp_mul=0.5, int_alu=0.1).is_floating_point
        assert not make_profile().is_floating_point

    def test_replace_preserves_validation(self):
        profile = make_profile()
        with pytest.raises(ConfigurationError):
            profile.replace(mlp=0.1)

    def test_profiles_hashable(self):
        a = make_profile()
        b = make_profile()
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_profile(int_alu=0.41)


class TestPickle:
    def test_round_trip_drops_memo_stashes(self):
        import pickle

        from repro.smt.diskcache import solve_key
        from repro.smt.params import IVY_BRIDGE
        from repro.smt.simulator import ContextPlacement, _profile_sort_key

        profile = make_profile()
        key = profile.key()
        _profile_sort_key(profile)
        solve_key(IVY_BRIDGE, [ContextPlacement(profile, core=0)])
        assert {"_key", "_sort_key", "_cache_digest"} <= set(profile.__dict__)

        loaded = pickle.loads(pickle.dumps(profile))
        assert loaded == profile
        assert hash(loaded) == hash(profile)
        assert not [name for name in loaded.__dict__ if name.startswith("_")]
        assert loaded.key() == key
        assert len(pickle.dumps(profile)) == len(pickle.dumps(loaded))
