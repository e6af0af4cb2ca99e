"""Tests for the synthetic workload generator."""

import numpy as np

from repro.workloads.profile import Suite
from repro.workloads.synthetic import random_profile


class TestRandomProfile:
    def test_always_valid(self):
        # Constructing WorkloadProfile runs full validation; 200 draws
        # exercise the generator's corners (validation raises on failure).
        rng = np.random.default_rng(0)
        for _ in range(200):
            random_profile(rng)

    def test_deterministic_for_seed(self):
        assert random_profile(42) == random_profile(42)

    def test_different_seeds_differ(self):
        assert random_profile(1) != random_profile(2)

    def test_name_override(self):
        assert random_profile(0, name="abc").name == "abc"

    def test_suite_override(self):
        assert random_profile(0, suite=Suite.RULER).suite is Suite.RULER

    def test_memory_free_profiles_occur(self):
        rng = np.random.default_rng(7)
        kinds = {random_profile(rng).accesses_per_instruction == 0.0
                 for _ in range(100)}
        assert kinds == {True, False}

