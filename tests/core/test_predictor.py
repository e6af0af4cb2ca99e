"""Tests for the SMiTe facade (characterize-once, fit, predict)."""

import pytest

from repro.core.predictor import SMiTe
from repro.errors import CharacterizationError, ConfigurationError
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.spec import SPEC_CPU2006
from repro.workloads.synthetic import random_profile

SMALL_TRAINING = [SPEC_CPU2006[n] for n in
                  ("401.bzip2", "429.mcf", "433.milc", "437.leslie3d",
                   "445.gobmk", "453.povray", "465.tonto", "471.omnetpp")]


@pytest.fixture(scope="module")
def fitted():
    simulator = Simulator(SANDY_BRIDGE_EN)
    return SMiTe(simulator).fit(SMALL_TRAINING, mode="smt")


class TestFit:
    def test_mode_recorded(self, fitted):
        assert fitted.mode == "smt"

    def test_model_fitted(self, fitted):
        assert fitted.model.is_fitted
        assert fitted.model.r_squared > 0.6

    def test_too_few_training_apps_rejected(self, ivy_sim):
        with pytest.raises(ConfigurationError):
            SMiTe(ivy_sim).fit([SPEC_CPU2006["429.mcf"]])

    def test_characterization_cached(self, fitted):
        first = fitted.characterization(SPEC_CPU2006["429.mcf"])
        second = fitted.characterization(SPEC_CPU2006["429.mcf"])
        assert first is second


def _population(first_seed, size=15):
    """Synthetic profiles named ``syn0...``: names repeat across seeds."""
    return [random_profile(first_seed + i, name=f"syn{i}")
            for i in range(size)]


class TestNameCollision:
    def test_second_population_reusing_names_raises(self, ivy_sim):
        smite = SMiTe(ivy_sim)
        first = _population(1000)
        smite.characterize_all(first)
        second = _population(2000)
        with pytest.raises(CharacterizationError, match="syn0"):
            smite.characterize_all(second)
        with pytest.raises(CharacterizationError, match="syn3"):
            smite.characterization(second[3])
        # A re-drawn equal profile is the same workload.
        assert (smite.characterization(random_profile(1003, name="syn3"))
                is smite.characterization(first[3]))

    def test_server_characterization_reusing_a_name_raises(self,
                                                             snb_sim):
        smite = SMiTe(snb_sim)
        first, second = _population(1000, 1)[0], _population(2000, 1)[0]
        smite.characterize_server(first, instances=1)
        with pytest.raises(CharacterizationError, match="syn0"):
            smite.characterize_server(second, instances=1)
        assert (smite.characterize_server(random_profile(1000, name="syn0"),
                                          instances=1)
                is smite.characterize_server(first, instances=1))

    def test_one_call_with_two_profiles_per_name_raises(self, ivy_sim):
        with pytest.raises(CharacterizationError, match="syn0"):
            SMiTe(ivy_sim).characterize_all(
                [*_population(1000, 2), *_population(2000, 2)])

    def test_seeded_names_stay_stale_on_purpose(self, ivy_sim):
        smite = SMiTe(ivy_sim)
        real, stale = _population(1000, 2)
        smite.seed_characterization(stale, smite.characterization(real))
        impostor = random_profile(2001, name=stale.name)
        for profile in (stale, impostor):
            assert (smite.characterization(profile)
                    is smite.characterization(real))
        smite.characterize_all([stale, impostor])


class TestPredict:
    def test_in_sample_prediction_close(self, fitted):
        a, b = SMALL_TRAINING[0], SMALL_TRAINING[1]
        measured = fitted.simulator.measure_pair(a, b, "smt").degradation_a
        assert fitted.predict(a, b) == pytest.approx(measured, abs=0.12)

    def test_out_of_sample_prediction_sane(self, fitted):
        victim = SPEC_CPU2006["444.namd"]
        aggressor = SPEC_CPU2006["470.lbm"]
        predicted = fitted.predict(victim, aggressor)
        assert -0.1 < predicted < 1.0

    def test_heavy_aggressor_predicts_more(self, fitted):
        victim = SPEC_CPU2006["482.sphinx3"]
        gentle = SPEC_CPU2006["453.povray"]
        heavy = SPEC_CPU2006["470.lbm"]
        assert fitted.predict(victim, heavy) > fitted.predict(victim, gentle)


class TestServerPrediction:
    def test_zero_instances_zero(self, fitted, cloud_apps):
        web = cloud_apps[0].profile
        batch = SMALL_TRAINING[0]
        assert fitted.predict_server(web, batch, instances=0) == 0.0

    def test_fallback_scales_with_instances(self, fitted, cloud_apps):
        web = cloud_apps[0].profile
        batch = SMALL_TRAINING[0]
        one = fitted.predict_server(web, batch, instances=1)
        six = fitted.predict_server(web, batch, instances=6)
        assert six == pytest.approx(6 * one)  # linear fallback path

    def test_instances_bounds(self, fitted, cloud_apps):
        web = cloud_apps[0].profile
        with pytest.raises(ConfigurationError):
            fitted.predict_server(web, SMALL_TRAINING[0], instances=7)

    def test_server_model_requires_pair_model(self):
        predictor = SMiTe(Simulator(SANDY_BRIDGE_EN))
        with pytest.raises(ConfigurationError):
            predictor.fit_server(SMALL_TRAINING)


class TestServerCalibrated:
    @pytest.fixture(scope="class")
    def server_fitted(self):
        simulator = Simulator(SANDY_BRIDGE_EN)
        predictor = SMiTe(simulator).fit(SMALL_TRAINING[:5], mode="smt")
        predictor.fit_server(SMALL_TRAINING[:5], instance_counts=(2, 6))
        return predictor

    def test_per_count_models(self, server_fitted):
        assert set(server_fitted.server_models) == {2, 6}
        assert all(m.is_fitted for m in server_fitted.server_models.values())

    def test_nearest_count_used_for_missing(self, server_fitted, cloud_apps):
        web = cloud_apps[0].profile
        batch = SMALL_TRAINING[0]
        # k=1 resolves to the k=2 model; prediction must still be finite
        value = server_fitted.predict_server(web, batch, instances=1)
        assert 0.0 <= value < 1.0

    def test_more_instances_predict_more(self, server_fitted, cloud_apps):
        web = cloud_apps[0].profile
        batch = SPEC_CPU2006["433.milc"]
        two = server_fitted.predict_server(web, batch, instances=2)
        six = server_fitted.predict_server(web, batch, instances=6)
        assert six > two
