"""Tests for the experiment framework and every paper experiment.

Each paper table and figure is run at ``ExperimentConfig(fast=True)``
(seed 42) and checked against the finding the paper reports for it. The
results come from the session's one uncached ``--all --fast`` run (the
``fast_results`` fixture in this directory's conftest).
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.registry import all_experiment_ids, get_experiment
from repro.experiments.runner import main as runner_main

FAST = ExperimentConfig(fast=True)


class TestFramework:
    def test_all_paper_ids_registered(self):
        ids = all_experiment_ids()
        assert ids[0] == "table1"
        for n in (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18):
            assert f"fig{n}" in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_result_render(self, fast_results):
        result = fast_results["table1"]
        text = result.render()
        assert "table1" in text
        assert "E5-2420" in text

    def test_metric_accessor(self, fast_results):
        result = fast_results["table1"]
        assert result.metric("machines") == 2.0
        with pytest.raises(ConfigurationError):
            result.metric("nope")

    def test_empty_result_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult(
                experiment_id="x", title="t", paper_claim="c",
                headers=("h",), rows=(),
            )

    def test_fast_config_shrinks_studies(self):
        assert ExperimentConfig(fast=True).servers_per_app < \
            ExperimentConfig(fast=False).servers_per_app


class TestCheapExperiments:
    def test_table1(self, fast_results):
        result = fast_results["table1"]
        assert len(result.rows) == 2

    def test_fig2_findings(self, fast_results):
        result = fast_results["fig2"]
        # Finding 1-2: FU contention can exceed 50% degradation.
        assert result.metric("max_fu_sensitivity") > 0.5
        # Finding 5: CloudSuite FU behaviour closer to SPEC_INT than the
        # overall INT/FP spread is wide.
        assert result.metric("cloud_vs_int_gap") < 0.15

    def test_fig3_port_distributions(self, fast_results):
        result = fast_results["fig3"]
        # Finding 6: ports 0 and 1 look alike...
        assert result.metric("port0_port1_median_gap") < 0.05

    def test_fig4_memory_findings(self, fast_results):
        result = fast_results["fig4"]
        # Finding 7: memory dimensions are more monolithic than FUs.
        assert result.metric("l1_l2_sensitivity_correlation") > 0.7
        assert result.metric("calculix_l1_l2_sen_gap") < 0.15
        # Finding 8: CloudSuite out-pressures SPEC at the L3.
        assert result.metric("cloud_over_spec_l3_con") > 1.1

    def test_fig5_store_port_underutilized(self, fast_results):
        result = fast_results["fig5"]
        assert result.metric("median_store_port") < \
            result.metric("median_load_ports")

    def test_fig6_variance(self, fast_results):
        result = fast_results["fig6"]
        assert result.metric("mean_std_across_apps") > 0.03
        assert result.metric("mean_std_across_dims") > 0.03

    def test_fig7_low_correlation(self, fast_results):
        result = fast_results["fig7"]
        assert result.metric("dimension_pairs") == 91.0
        # Finding 9 (directional): most pairs below 0.8, majority below 0.5.
        assert result.metric("fraction_below_080") > 0.70
        assert result.metric("fraction_below_050") >= 0.35

    def test_fig9_ruler_validation(self, fast_results):
        result = fast_results["fig9"]
        for dim in ("fp_mul", "fp_add", "fp_shf", "int_add"):
            assert result.metric(f"purity_{dim}") >= 0.9999
        for level in ("l1", "l2", "l3"):
            assert result.metric(f"linearity_{level}") >= 0.85

    def test_fig10_smite_beats_pmu(self, fast_results):
        result = fast_results["fig10"]
        assert result.metric("smite_mean_error") < 0.06
        assert result.metric("pmu_mean_error") > \
            2 * result.metric("smite_mean_error")

    def test_fig11_cmp(self, fast_results):
        result = fast_results["fig11"]
        assert result.metric("smite_mean_error") < 0.07
        assert result.metric("pmu_mean_error") > \
            result.metric("smite_mean_error")


class TestHeadlineExperiments:
    """CloudSuite accuracy, scale-out utilization and TCO (fig12-fig18)."""

    def test_fig12_cloudsuite_prediction(self, fast_results):
        result = fast_results["fig12"]
        # Paper: SMiTe 1.79%/1.36% vs PMU 17.45%/27.01%. Shape: SMiTe wins
        # in both topologies.
        assert result.metric("smite_smt_error") < \
            result.metric("pmu_smt_error")
        assert result.metric("smite_cmp_error") < \
            result.metric("pmu_cmp_error")
        assert result.metric("smite_smt_error") < 0.08

    def test_fig13_tail_latency_prediction(self, fast_results):
        result = fast_results["fig13"]
        # Paper: 4.61% (Web-Search) and 6.17% (Data-Caching) average error.
        assert result.metric("web-search_tail_error") < 0.10
        assert result.metric("data-caching_tail_error") < 0.10
        assert result.metric("web-search_fit_r2") > 0.9

    def test_fig14_utilization_improvement(self, fast_results):
        result = fast_results["fig14"]
        # Paper shape: gains grow as the target loosens; SMiTe tracks Oracle.
        assert result.metric("smite_85") > result.metric("smite_90") > \
            result.metric("smite_95") > 0.0
        for level in (95, 90, 85):
            assert result.metric(f"smite_{level}") <= \
                result.metric(f"oracle_{level}") + 0.02

    def test_fig15_qos_violations(self, fast_results):
        result = fast_results["fig15"]
        # Paper: Random violates up to 26%; SMiTe's worst magnitude 1.67%;
        # 78.57% average violation reduction.
        for level in (95, 90, 85):
            assert result.metric(f"random_rate_{level}") >= \
                result.metric(f"smite_rate_{level}")
        assert result.metric("mean_violation_reduction") > 0.5
        assert result.metric("smite_worst_95") < 0.05

    def test_fig16_tail_utilization(self, fast_results):
        result = fast_results["fig16"]
        # Paper shape: tail QoS admits far less than average QoS (the paper
        # reaches 0% at the 95% target; our predictor's ~1-2% single-
        # instance error lets a few servers through the 2.5% tail budget),
        # with gains growing as the target loosens.
        assert result.metric("smite_95") < 0.15
        assert result.metric("smite_85") >= result.metric("smite_90") >= \
            result.metric("smite_95")

    def test_fig17_tail_violations(self, fast_results):
        result = fast_results["fig17"]
        # Paper: Random reaches 110% violation (queueing blow-up); SMiTe's
        # violations stay small in magnitude.
        assert result.metric("random_worst_90") > 1.0
        assert result.metric("smite_worst_90") < 0.10
        assert result.metric("smite_worst_85") < 0.10

    def test_fig18_tco_savings(self, fast_results):
        result = fast_results["fig18"]
        # Paper shape: positive savings, average-performance QoS saves
        # roughly twice what the (harder) tail-latency QoS saves.
        avg = result.metric("max_saving_average_qos")
        tail = result.metric("max_saving_tail_qos")
        assert avg > tail > 0.0
        assert avg > 0.05


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_no_args_is_error(self, capsys):
        assert runner_main([]) == 2

    def test_run_one_with_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert runner_main(["table1", "--fast", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "table1" in data
        assert data["table1"]["metrics"]["machines"] == 2.0


class TestAdaptiveExperiment:
    """The headline claim of the recalibration study (ISSUE 9)."""

    def test_adaptive_beats_static_across_phase_change(self, fast_results):
        result = fast_results["figs_adaptive"]
        m = result.metrics
        # Drift was detected and coefficients actually hot-swapped.
        assert m["adaptive_swaps"] >= 1
        assert m["adaptive_model_version"] >= 1
        # The acceptance bar: strictly fewer violated server-windows at
        # equal-or-better utilization gain than the static run.
        assert m["adaptive_violations"] < m["static_violations"]
        assert m["adaptive_gain"] >= m["static_gain"]
        policies = [row[0] for row in result.rows]
        assert policies == ["static", "adaptive"]

    def test_burn_rate_alert_brackets_the_recovery(self, fast_results):
        """The SLO burn-rate alert fires on the first post-shift window
        close -- before the drift-triggered swap that answers it -- and
        resolves after recalibration, but only under the adaptive
        policy (ISSUE 10)."""
        from repro.experiments.figs_adaptive import _study

        result = fast_results["figs_adaptive"]
        study = _study(FAST.fast, FAST.seed)
        shift_s = study["shift_s"]
        events = study["alerts"]["adaptive"]["events"]
        burn = [e for e in events
                if e["name"] == "serve.alert.slo_burn_rate"]
        fired = [e["time_s"] for e in burn if e["state"] == "firing"]
        resolved = [e["time_s"] for e in burn if e["state"] == "resolved"]
        assert fired and resolved
        # Fires after the phase change, before any post-shift swap.
        post_shift_swaps = [t for t in study["swap_epochs"]
                            if t > shift_s]
        assert post_shift_swaps, "no drift-triggered swap after the shift"
        assert shift_s < fired[0] <= min(post_shift_swaps)
        # Resolves only once recalibration has taken effect.
        assert resolved[0] > min(post_shift_swaps)
        # The static run burns to the end of the trace: same firing,
        # no resolve.
        static_burn = [e for e in study["alerts"]["static"]["events"]
                       if e["name"] == "serve.alert.slo_burn_rate"]
        assert [e["state"] for e in static_burn] == ["firing"]
        assert result.metrics["static_alert_resolves"] == 0.0
        assert result.metrics["adaptive_alert_resolves"] >= 1.0
