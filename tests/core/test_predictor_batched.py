"""The predictor's calibration sweeps run through the batch solver.

``SMiTe.fit`` and ``fit_server`` prefetch every placement they read, so
a cold fit makes no one-at-a-time ``run`` solves — and the batched fixed
points must give the coefficients the scalar reference solver gives.
Refitting must not reuse anything derived from the previous fit.
"""

import pytest

from repro.core.predictor import SMiTe
from repro.obs import snapshot
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.results import SolvedBatch
from repro.smt.simulator import Simulator
from repro.smt.solver import solve
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd

TRAINING = spec_odd()[:4]
COUNTS = (1, 3)


class ScalarSimulator(Simulator):
    """A simulator whose reads each take the scalar reference solver.

    Its prefetch does nothing and it solves every miss with ``solve``
    (a plain ``Simulator`` batch-solves them). Built without a disk
    cache, batch results never stand in for the oracle's.
    """

    def prefetch(self, placements_list) -> None:
        return None

    def _solve_todo(self, todo) -> None:
        solved = SolvedBatch.from_results(
            [solve(self.machine, canonical) for canonical, _ in todo.values()])
        self._store([(key, disk_key, solved.problem(i))
                     for i, (key, (_, disk_key)) in enumerate(todo.items())])


def _counter(name: str) -> int:
    return snapshot()["counters"].get(name, 0)


def _scalar_solves() -> int:
    return _counter("smt.solver.solves")


def _run_solves() -> int:
    """``Simulator.run`` misses that nothing prefetched."""
    return _counter("smt.simulator.run_solves")


def _fit(simulator: Simulator, training=TRAINING, *, mode="smt",
         counts=COUNTS) -> SMiTe:
    return SMiTe(simulator).fit(training, mode=mode).fit_server(
        training, instance_counts=counts)


def _coefficients(model) -> list[float]:
    return [*model.coefficients.values(), model.intercept]


class TestBatchedFit:
    def test_cold_fit_makes_no_scalar_solves(self):
        before = _run_solves()
        _fit(Simulator(SANDY_BRIDGE_EN))
        assert _run_solves() == before

    def test_coefficients_match_the_scalar_path(self):
        batched = _fit(Simulator(SANDY_BRIDGE_EN))
        before = _scalar_solves()
        scalar = _fit(ScalarSimulator(SANDY_BRIDGE_EN))
        # The oracle really took the scalar path.
        assert _scalar_solves() > before
        assert _coefficients(batched.model) == pytest.approx(
            _coefficients(scalar.model), rel=1e-9, abs=1e-12)
        assert sorted(batched.server_models) == list(COUNTS)
        for k in COUNTS:
            assert _coefficients(batched.server_models[k]) == pytest.approx(
                _coefficients(scalar.server_models[k]), rel=1e-9, abs=1e-12)

    def test_prefetch_server_covers_predict_server(self):
        predictor = _fit(Simulator(SANDY_BRIDGE_EN))
        apps = [app.profile for app in cloudsuite_apps()[:2]]
        batch = spec_even()[:3]
        predictor.prefetch_server(apps, batch, instance_counts=range(1, 7))
        before = _run_solves()
        for app in apps:
            for profile in batch:
                for k in range(1, 7):
                    predictor.predict_server(app, profile, instances=k)
        assert _run_solves() == before


class TestRefit:
    def test_refit_predicts_like_a_fresh_fit(self):
        simulator = Simulator(SANDY_BRIDGE_EN)
        app = cloudsuite_apps()[0].profile
        batch = spec_even()[0]
        refitted = _fit(simulator)
        # Fill the calibration and Ruler caches under the first fit.
        refitted.predict_server(app, batch, instances=1)
        other = spec_odd()[4:8]
        refitted.fit(other, mode="cmp").fit_server(other, instance_counts=(1, 2))
        fresh = _fit(simulator, other, mode="cmp", counts=(1, 2))
        for k in (1, 2, 3):
            assert refitted.predict_server(app, batch, instances=k) == \
                fresh.predict_server(app, batch, instances=k)

    def test_pair_refit_drops_the_server_models(self):
        predictor = _fit(Simulator(SANDY_BRIDGE_EN))
        predictor.fit(spec_odd()[4:8], mode="smt")
        assert predictor.server_models == {}
