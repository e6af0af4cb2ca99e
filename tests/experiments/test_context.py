"""Tests for the shared experiment fixtures (memoization semantics)."""

from repro.experiments import context
from repro.rulers.base import Dimension
from repro.rulers.suite import default_suite
from repro.smt.params import SANDY_BRIDGE_EN


class TestMemoization:
    def test_simulators_are_singletons(self):
        assert context.ivy_simulator() is context.ivy_simulator()
        assert context.snb_simulator() is context.snb_simulator()
        assert context.ivy_simulator() is not context.snb_simulator()

    def test_machines_correct(self):
        assert context.ivy_simulator().machine.name == "ivy-bridge"
        assert context.snb_simulator().machine.name == "sandy-bridge-en"

    def test_suites_sized_to_machines(self):
        ivy_l3 = context.ivy_suite()
        snb_l3 = default_suite(SANDY_BRIDGE_EN)
        assert (snb_l3[Dimension.L3].profile.total_footprint_bytes
                > ivy_l3[Dimension.L3].profile.total_footprint_bytes)

    def test_population_covers_all_profiles(self):
        population = context.characterized_population()
        assert len(population) == 33
        assert population is context.characterized_population()

    def test_cloud_profiles(self):
        names = {p.name for p in context.cloud_profiles()}
        assert names == {"web-search", "data-caching", "data-serving",
                         "graph-analytics"}

    def test_smite_spec_trained_on_even(self):
        predictor = context.smite_spec("smt")
        assert predictor.model.is_fitted
        assert predictor.mode == "smt"
        assert predictor is context.smite_spec("smt")

    def test_spec_test_dataset_is_odd_half(self):
        dataset = context.spec_test_dataset("smt")
        victims = {s.victim.name for s in dataset}
        assert "429.mcf" in victims       # odd-numbered
        assert "444.namd" not in victims  # even-numbered

    def test_pmu_model_fitted(self):
        assert context.pmu_model_spec("smt").is_fitted
