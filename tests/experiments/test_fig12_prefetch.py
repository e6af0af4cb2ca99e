"""Figure 12 solves its whole CloudSuite grid through the batch solver.

The experiment is shrunk to a fresh, cache-less simulator and small
training/testing sets; its structure — fit, server calibration, the
measured server dataset, the predictor warm-up, the prediction loop —
is the real one.
"""

import pytest

from repro.core.predictor import SMiTe
from repro.experiments import fig12_cloudsuite as fig12
from repro.obs import snapshot
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd


def _solves() -> int:
    """``Simulator.run`` misses that nothing prefetched."""
    return snapshot()["counters"].get("smt.simulator.run_solves", 0)


@pytest.fixture
def small_fig12(monkeypatch):
    simulator = Simulator(SANDY_BRIDGE_EN)
    # Five apps give the PMU baseline more pair samples than features.
    training = spec_odd()[:5]

    def smite_cloud(mode="smt"):
        return SMiTe(simulator).fit(training, mode=mode).fit_server(
            training, instance_counts=(1, 3, 6))

    monkeypatch.setattr(fig12, "snb_simulator", lambda: simulator)
    monkeypatch.setattr(fig12, "spec_odd", lambda: training)
    monkeypatch.setattr(fig12, "spec_even", lambda: spec_even()[:3])
    monkeypatch.setattr(fig12, "cloud_profiles",
                        lambda: [w.profile for w in cloudsuite_apps()[:2]])
    monkeypatch.setattr(fig12, "smite_cloud", smite_cloud)
    monkeypatch.setattr(fig12, "_smite_cloud_cmp",
                        fig12._smite_cloud_cmp.__wrapped__)
    monkeypatch.setattr(fig12, "_pmu_cloud", fig12._pmu_cloud.__wrapped__)
    return fig12.cloudsuite_reports.__wrapped__


@pytest.mark.parametrize("mode", ["smt", "cmp"])
def test_prediction_loop_makes_no_scalar_solves(small_fig12, monkeypatch,
                                                mode):
    loop_solves = []
    predict_server = SMiTe.predict_server

    def counting_predict_server(self, *args, **kwargs):
        before = _solves()
        try:
            return predict_server(self, *args, **kwargs)
        finally:
            loop_solves.append(_solves() - before)

    monkeypatch.setattr(SMiTe, "predict_server", counting_predict_server)
    before = _solves()
    smite_report, pmu_report = small_fig12(mode)
    total = 6 if mode == "smt" else 3
    assert len(smite_report.predictions) == 2 * 3 * total
    assert len(loop_solves) == len(smite_report.predictions)
    assert sum(loop_solves) == 0
    # The fits and the measured dataset are batched too: the whole
    # experiment solves nothing one read at a time.
    assert _solves() == before
