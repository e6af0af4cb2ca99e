"""fig9, fig13 and figs_adaptive batch-solve the grids they read.

Each experiment is shrunk to a fresh, cache-less simulator and small
workload sets; the loops under test — fig13's measured-degradation grid
and figs_adaptive's safe-cap ranking — are the real ones.
"""

import pytest

from repro.core.predictor import SMiTe
from repro.experiments import fig09_rulers as fig9
from repro.experiments import fig13_tail_latency as fig13
from repro.experiments import figs_adaptive
from repro.experiments.base import ExperimentConfig
from repro.obs import snapshot
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.spec import spec_even, spec_odd


def _solves() -> int:
    """``Simulator.run`` misses that nothing prefetched."""
    return snapshot()["counters"].get("smt.simulator.run_solves", 0)


class _SmallConfig(ExperimentConfig):
    """``--fast`` with a shorter discrete-event queue per point."""

    @property
    def des_jobs(self) -> int:
        return 2_000


def test_fig13_measurement_grid_makes_no_unprefetched_solves(monkeypatch):
    simulator = Simulator(SANDY_BRIDGE_EN)
    training = spec_odd()[:4]
    monkeypatch.setattr(fig13, "snb_simulator", lambda: simulator)
    monkeypatch.setattr(
        fig13, "smite_cloud",
        lambda mode="smt": SMiTe(simulator).fit(training, mode=mode),
    )
    monkeypatch.setattr(fig13, "spec_even", lambda: spec_even()[:2])
    measured = []
    measure = Simulator.measure_server_degradation

    def counting_measure(self, *args, **kwargs):
        before = _solves()
        try:
            return measure(self, *args, **kwargs)
        finally:
            measured.append(_solves() - before)

    monkeypatch.setattr(Simulator, "measure_server_degradation",
                        counting_measure)
    before = _solves()
    result = fig13.run(_SmallConfig(fast=True))
    assert result.rows
    # fit_tail_model's Ruler sweep plus the 2 apps x 2 batch apps x 6
    # instance-count grid.
    assert len(measured) > 2 * 2 * 6
    assert sum(measured) == 0
    assert _solves() == before


class _Stop(Exception):
    """Ends the study once the pool is ranked."""


def test_figs_adaptive_ranking_makes_no_unprefetched_solves(monkeypatch):
    simulator = Simulator(SANDY_BRIDGE_EN)
    monkeypatch.setattr(figs_adaptive, "snb_simulator", lambda: simulator)
    monkeypatch.setattr(figs_adaptive, "spec_odd", lambda: spec_odd()[:4])
    caps = []
    safe_cap = figs_adaptive._safe_cap

    def counting_safe_cap(*args, **kwargs):
        before = _solves()
        try:
            return safe_cap(*args, **kwargs)
        finally:
            caps.append(_solves() - before)

    def stop(*_args, **_kwargs):
        raise _Stop

    monkeypatch.setattr(figs_adaptive, "_safe_cap", counting_safe_cap)
    monkeypatch.setattr(figs_adaptive, "poisson_trace", stop)
    with pytest.raises(_Stop):
        figs_adaptive._study.__wrapped__(True, 42)
    assert len(caps) == 6
    assert sum(caps) == 0


def test_fig9_alone_makes_no_unprefetched_solves(monkeypatch):
    # Reference: every read a batch-of-one solve, nothing prefetched.
    unbatched = Simulator(IVY_BRIDGE)
    monkeypatch.setattr(unbatched, "prefetch", lambda placements: None)
    monkeypatch.setattr(fig9, "ivy_simulator", lambda: unbatched)
    expected = fig9.run(ExperimentConfig(fast=True))

    monkeypatch.setattr(fig9, "ivy_simulator",
                        lambda: Simulator(IVY_BRIDGE))
    before = _solves()
    result = fig9.run(ExperimentConfig(fast=True))
    # The purity check's four functional-unit solo PMU reads included.
    assert _solves() == before
    assert result == expected
