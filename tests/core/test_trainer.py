"""Tests for dataset construction and evaluation plumbing."""

import pytest

from repro.core.trainer import (
    build_pair_dataset,
    build_server_dataset,
    evaluate_model,
)
from repro.errors import ConfigurationError
from repro.workloads.spec import SPEC_CPU2006


class TestPairDataset:
    def test_ordered_pairs_with_self(self, ivy_sim):
        profiles = [SPEC_CPU2006["429.mcf"], SPEC_CPU2006["444.namd"]]
        dataset = build_pair_dataset(ivy_sim, profiles)
        assert len(dataset) == 4  # 2x2 ordered incl. self-pairs

    def test_self_pairs_excludable(self, ivy_sim):
        profiles = [SPEC_CPU2006["429.mcf"], SPEC_CPU2006["444.namd"]]
        dataset = build_pair_dataset(ivy_sim, profiles,
                                     include_self_pairs=False)
        assert len(dataset) == 2
        assert all(s.victim.name != s.aggressor.name for s in dataset)

    def test_separate_aggressor_population(self, ivy_sim):
        victims = [SPEC_CPU2006["429.mcf"]]
        aggressors = [SPEC_CPU2006["444.namd"], SPEC_CPU2006["470.lbm"]]
        dataset = build_pair_dataset(ivy_sim, victims, aggressors)
        assert len(dataset) == 2
        assert all(s.victim.name == "429.mcf" for s in dataset)

    def test_degradation_matches_simulator(self, ivy_sim):
        profiles = [SPEC_CPU2006["429.mcf"], SPEC_CPU2006["444.namd"]]
        dataset = build_pair_dataset(ivy_sim, profiles)
        sample = dataset.samples[1]  # mcf vs namd
        measured = ivy_sim.measure_pair(sample.victim, sample.aggressor,
                                        "smt")
        assert sample.degradation == measured.degradation_a

    def test_empty_rejected(self, ivy_sim):
        with pytest.raises(ConfigurationError):
            build_pair_dataset(ivy_sim, [])


class TestServerDataset:
    def test_instance_range(self, snb_sim, cloud_apps):
        web = cloud_apps[0].profile
        batch = [SPEC_CPU2006["456.hmmer"]]
        samples = build_server_dataset(snb_sim, [web], batch, mode="smt")
        assert [s.instances for s in samples] == [1, 2, 3, 4, 5, 6]

    def test_cmp_limits_instances(self, snb_sim, cloud_apps):
        web = cloud_apps[0].profile
        batch = [SPEC_CPU2006["456.hmmer"]]
        samples = build_server_dataset(snb_sim, [web], batch, mode="cmp")
        assert max(s.instances for s in samples) == 3


class TestEvaluateModel:
    def test_error_accounting(self, ivy_sim):
        profiles = [SPEC_CPU2006["429.mcf"], SPEC_CPU2006["444.namd"]]
        dataset = build_pair_dataset(ivy_sim, profiles)
        report = evaluate_model("zero", lambda v, a: 0.0, dataset)
        expected = sum(s.degradation for s in dataset) / len(dataset)
        assert report.mean_error == pytest.approx(expected)

    def test_perfect_predictor_zero_error(self, ivy_sim):
        profiles = [SPEC_CPU2006["429.mcf"], SPEC_CPU2006["444.namd"]]
        dataset = build_pair_dataset(ivy_sim, profiles)
        truth = {(s.victim.name, s.aggressor.name): s.degradation
                 for s in dataset}
        report = evaluate_model(
            "oracle", lambda v, a: truth[(v.name, a.name)], dataset
        )
        assert report.mean_error == 0.0
