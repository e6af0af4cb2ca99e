"""Shared, memoized experiment fixtures.

Several experiments need the same expensive artifacts — characterized
populations, fitted predictors, the scale-out runs. This module caches
them per (config) so running the whole suite in one process does each
piece of work once. Everything here is deterministic given the config.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.core.characterize import Characterization, characterize_many
from repro.core.pmu_model import PmuModel
from repro.core.predictor import SMiTe
from repro.core.trainer import PairDataset, build_pair_dataset
from repro.rulers.base import RulerSuite
from repro.rulers.suite import default_suite
from repro.smt.diskcache import default_cache
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.profile import WorkloadProfile
from repro.workloads.registry import all_profiles
from repro.workloads.spec import spec_even, spec_odd

__all__ = [
    "ivy_simulator",
    "snb_simulator",
    "ivy_suite",
    "characterized_population",
    "smite_spec",
    "smite_cloud",
    "fit_pmu_baseline",
    "pmu_model_spec",
    "spec_test_dataset",
    "cloud_profiles",
]


@lru_cache(maxsize=None)
def ivy_simulator() -> Simulator:
    """The Ivy Bridge machine of the SPEC accuracy experiments."""
    return Simulator(IVY_BRIDGE, disk_cache=default_cache())


@lru_cache(maxsize=None)
def snb_simulator() -> Simulator:
    """The Sandy Bridge-EN machine of the CloudSuite/scale-out studies."""
    return Simulator(SANDY_BRIDGE_EN, disk_cache=default_cache())


@lru_cache(maxsize=None)
def ivy_suite() -> RulerSuite:
    """The default Ruler suite for the Ivy Bridge machine (cached)."""
    return default_suite(IVY_BRIDGE)


@lru_cache(maxsize=None)
def characterized_population() -> dict[str, Characterization]:
    """Every SPEC + CloudSuite profile characterized on Ivy Bridge (SMT).

    This is the data behind Figures 2, 4, 6, and 7.
    """
    return characterize_many(ivy_simulator(), all_profiles(), ivy_suite(),
                             mode="smt")


@lru_cache(maxsize=None)
def smite_spec(mode: PairMode = "smt") -> SMiTe:
    """SMiTe trained on even-numbered SPEC (Figures 10-11 protocol)."""
    return SMiTe(ivy_simulator()).fit(spec_even(), mode=mode)


@lru_cache(maxsize=None)
def smite_cloud(mode: PairMode = "smt") -> SMiTe:
    """SMiTe trained on odd-numbered SPEC, server-calibrated (Figure 12+)."""
    predictor = SMiTe(snb_simulator()).fit(spec_odd(), mode=mode)
    predictor.fit_server(spec_odd())
    return predictor


@lru_cache(maxsize=None)
def spec_test_dataset(mode: PairMode = "smt") -> PairDataset:
    """All odd-numbered SPEC co-location measurements on Ivy Bridge."""
    return build_pair_dataset(ivy_simulator(), spec_odd(), mode=mode)


def fit_pmu_baseline(simulator: Simulator,
                     training: Sequence[WorkloadProfile],
                     mode: PairMode) -> PmuModel:
    """The Equation 9 baseline fit on every ordered pair of ``training``."""
    train = build_pair_dataset(simulator, training, mode=mode)
    model = PmuModel()
    model.fit([
        (simulator.read_solo_pmu(s.victim),
         simulator.read_solo_pmu(s.aggressor),
         s.degradation)
        for s in train
    ])
    return model


@lru_cache(maxsize=None)
def pmu_model_spec(mode: PairMode = "smt") -> PmuModel:
    """The Equation 9 baseline trained on even-numbered SPEC pairs."""
    return fit_pmu_baseline(ivy_simulator(), spec_even(), mode)


def cloud_profiles():
    """The four CloudSuite profiles (latency-sensitive side)."""
    return [w.profile for w in cloudsuite_apps()]
