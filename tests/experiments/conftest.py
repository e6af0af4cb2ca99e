"""Session fixtures for the experiment tests.

The ``--all --fast`` seed-42 results are computed once per session,
in-process and without the disk cache, from a clean state: a fresh
``Simulator`` and every memoized fixture of ``repro.experiments``
forgotten. The paper-claim tests read them; the path-independence tests
compare each family run alone against them.
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro.experiments.base import ExperimentConfig
from repro.experiments.registry import all_experiment_ids, run_experiment
from repro.obs import snapshot

FAST = ExperimentConfig(fast=True, seed=42)


def _solves() -> int:
    """``Simulator.run`` misses that nothing prefetched."""
    return snapshot()["counters"].get("smt.simulator.run_solves", 0)


def _forget_fixtures() -> None:
    """Clear every ``lru_cache`` in ``repro.experiments``.

    The simulators are among them, so the next run builds fresh ones.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro.experiments"):
            continue
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()


def _run_alone(ids):
    """Run ``ids`` from a clean, uncached state.

    Returns each experiment's result and the number of reads nothing
    prefetched. The fixtures the run built stay memoized afterwards.
    """
    _forget_fixtures()
    before = _solves()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SMITE_NO_CACHE", "1")
        results = {eid: run_experiment(eid, FAST) for eid in ids}
    return results, _solves() - before


@pytest.fixture(scope="session")
def run_alone():
    """:func:`_run_alone`, for tests that run a subset of experiments."""
    return _run_alone


@pytest.fixture(scope="session")
def fast_all():
    """``--all --fast`` at seed 42: (results by id, unprefetched reads)."""
    return _run_alone(all_experiment_ids())


@pytest.fixture(scope="session")
def fast_results(fast_all):
    """``--all --fast`` seed-42 results by experiment id."""
    return fast_all[0]
