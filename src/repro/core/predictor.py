"""The high-level SMiTe facade (Figure 8's three-step pipeline).

One object owns the simulator, the Ruler suite, the characterization
cache, and the fitted Equation 3 model:

>>> smite = SMiTe(Simulator(IVY_BRIDGE))
>>> smite.fit(training_profiles, mode="smt")
>>> smite.predict(victim_profile, aggressor_profile)  # degradation

Applications are characterized once and cached — the methodology's
selling point over exhaustive pairwise profiling (Section III-D).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.characterize import (
    Characterization,
    characterize,
    characterize_many,
)
from repro.core.model import SMiTeModel
from repro.core.trainer import build_pair_dataset
from repro.errors import CharacterizationError, ConfigurationError
from repro.rulers.base import Dimension, RulerSuite
from repro.rulers.suite import default_suite
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.profile import WorkloadProfile

__all__ = ["SMiTe"]


class SMiTe:
    """Characterize once, fit the interaction regression, predict any pair."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        suite: RulerSuite | None = None,
        ridge: float = 0.0,
    ) -> None:
        self.simulator = simulator
        self.suite = suite if suite is not None else default_suite(simulator.machine)
        self.model = SMiTeModel(ridge=ridge)
        self._ridge = ridge
        #: per-instance-count regressions calibrated on the server
        #: topology (fitted by :meth:`fit_server`); used by
        #: :meth:`predict_server`
        self.server_models: dict[int, SMiTeModel] = {}
        self._mode: PairMode = "smt"
        #: ``(name, mode)`` -> (the profile measured, its
        #: characterization). The profile is ``None`` for entries from
        #: :meth:`seed_characterization`, the one way a name may stand
        #: for another workload; :meth:`characterization` and
        #: :meth:`characterize_all` raise on any other name reuse.
        self._characterizations: dict[
            tuple[str, str],
            tuple[WorkloadProfile | None, Characterization],
        ] = {}
        # Characterization keys whose readings prefetch_server already
        # pushed to the simulator (solves never go stale).
        self._warmed: set[tuple[str, str]] = set()
        # Derived from the fitted models and the mode; every fit clears
        # them (see _reset_fit_caches).
        self._server_calibrations: dict[tuple, float] = {}
        self._ruler_chars: dict[Dimension, Characterization] | None = None

    # ------------------------------------------------------------------

    @property
    def mode(self) -> PairMode:
        """The co-location topology this instance was fitted for."""
        return self._mode

    def characterization(
        self, profile: WorkloadProfile, *, mode: PairMode | None = None
    ) -> Characterization:
        """The (cached) Ruler characterization of one workload."""
        mode = mode or self._mode
        key = (profile.name, mode)
        entry = self._characterizations.get(key)
        if entry is None:
            entry = (profile, characterize(self.simulator, profile,
                                           self.suite, mode=mode))
            self._characterizations[key] = entry
        elif entry[0] is not profile:
            _check_owner(entry[0], profile, mode)
        return entry[1]

    def seed_characterization(
        self,
        profile: WorkloadProfile,
        characterization: Characterization,
        *,
        mode: PairMode | None = None,
    ) -> None:
        """Pre-populate the characterization cache for one workload.

        Models a stale profile database: the serving stack looks
        workloads up by name, so seeding a profile with *another*
        workload's characterization makes every downstream prediction
        systematically wrong while the simulator (the ground truth)
        still measures the real behavior. The adaptive-serving
        experiment uses this to create recoverable mispredictions; it
        is also the import hook for characterizations measured offline.
        """
        mode = mode or self._mode
        self._characterizations[(profile.name, mode)] = (None,
                                                         characterization)

    def characterize_all(self, profiles: Iterable[WorkloadProfile]) -> None:
        """Characterize every uncached profile through one batched sweep.

        Gives the characterizations :meth:`characterization` would
        measure one profile at a time, with every Ruler co-run solved in
        one batch by :func:`characterize_many`.
        """
        mode = self._mode
        cached = self._characterizations
        missing: dict[str, WorkloadProfile] = {}
        for profile in profiles:
            entry = cached.get((profile.name, mode))
            owner = (entry[0] if entry is not None
                     else missing.setdefault(profile.name, profile))
            if owner is not profile:
                _check_owner(owner, profile, mode)
        if missing:
            chars = characterize_many(
                self.simulator, list(missing.values()), self.suite, mode=mode,
            )
            for name, profile in missing.items():
                cached[(name, mode)] = (profile, chars[name])

    def characterize_server(
        self,
        latency_profile: WorkloadProfile,
        *,
        mode: PairMode | None = None,
        latency_threads: int | None = None,
        instances: int | None = None,
    ) -> Characterization:
        """Server-level characterization for multithreaded latency apps.

        The paper runs N instances of each Ruler against the half-loaded
        app (6 for SMT, 3 for CMP on the Sandy Bridge-EN box); the app's
        thread-average degradation is its sensitivity, the Rulers' average
        degradation its contentiousness. Passing a smaller ``instances``
        measures the partially co-located operating point — degradation
        grows superlinearly in the instance count (shared-cache pressure
        accumulates), so each count gets its own characterization.
        """
        mode = mode or self._mode
        machine = self.simulator.machine
        if mode == "smt":
            total = latency_threads if latency_threads else machine.cores
        else:
            total = (latency_threads if latency_threads
                     else machine.cores // 2)
        if instances is None:
            instances = total
        if not 0 < instances <= total:
            raise ConfigurationError(
                f"ruler instances must be in 1..{total}, got {instances}"
            )
        key = self._server_key(latency_profile, instances, mode)
        cached = self._characterizations.get(key)
        if cached is not None:
            if cached[0] is not latency_profile:
                _check_owner(cached[0], latency_profile, mode)
            return cached[1]
        sensitivity: dict[Dimension, float] = {}
        contentiousness: dict[Dimension, float] = {}
        for dimension in self.suite:
            ruler = self.suite[dimension]
            measured = self.simulator.measure_server(
                latency_profile, ruler.profile, instances=instances,
                mode=mode, latency_threads=latency_threads,
            )
            sensitivity[dimension] = measured.degradation_a
            contentiousness[dimension] = measured.degradation_b
        result = Characterization(
            workload=latency_profile.name,
            sensitivity=sensitivity,
            contentiousness=contentiousness,
        )
        self._characterizations[key] = (latency_profile, result)
        return result

    # ------------------------------------------------------------------

    def fit(
        self,
        training: Sequence[WorkloadProfile],
        *,
        mode: PairMode = "smt",
    ) -> "SMiTe":
        """Profile all ordered training pairs and fit Equation 3."""
        if len(training) < 3:
            raise ConfigurationError(
                "SMiTe needs at least 3 training workloads"
            )
        self._mode = mode
        self._reset_fit_caches()
        self.server_models = {}
        self.characterize_all(training)
        dataset = build_pair_dataset(self.simulator, list(training), mode=mode)
        triples = [
            (
                self.characterization(sample.victim),
                self.characterization(sample.aggressor),
                sample.degradation,
            )
            for sample in dataset
        ]
        self.model.fit(triples)
        return self

    def fit_server(
        self,
        training: Sequence[WorkloadProfile],
        *,
        instance_counts: Sequence[int] | None = None,
        latency_threads: int | None = None,
    ) -> "SMiTe":
        """Calibrate per-instance-count Equation 3 models for servers.

        The pair-trained coefficients do not transfer to a 12-context
        server — shared-L3 pressure accumulates superlinearly with the
        batch-instance count, and the growth shape is workload-dependent.
        So each admissible instance count gets its own regression, fitted
        on the training workloads *in the server layout*: each training
        app plays the latency role (its per-count Ruler characterization
        is the sensitivity), each plays the batch role (its pair
        contentiousness), and the response is the measured server
        degradation at that count. This mirrors the paper's Figure 12
        protocol, which measures every instance count separately.
        """
        if not self.model.is_fitted:
            raise ConfigurationError(
                "fit the pair model before the server model"
            )
        machine = self.simulator.machine
        if self._mode == "smt":
            total = latency_threads if latency_threads else machine.cores
        else:
            total = latency_threads if latency_threads else machine.cores // 2
        if instance_counts is None:
            counts = list(range(1, total + 1))
        else:
            counts = sorted({min(max(k, 1), total) for k in instance_counts})
        self._reset_fit_caches()
        self.characterize_all(training)
        batch_chars = [self.characterization(b) for b in training]
        # The latency role is a multithreaded service: its threads work
        # on one shared data set. Train with the multithreaded variant of
        # each training app so the feature domain matches the CloudSuite
        # apps this model predicts.
        latency_apps = [app.replace(name=f"{app.name}-mt", shares_memory=True)
                        for app in training]
        # The whole calibration grid — each latency variant against every
        # Ruler (its per-count characterization) and every training app
        # (the response), at every count — in one batched solve.
        others = [*self._ruler_profiles(), *training]
        self.simulator.prefetch_readings(servers=[
            (latency_app, other, k, self._mode, latency_threads)
            for latency_app in latency_apps for other in others for k in counts
        ])
        self.server_models = {}
        for k in counts:
            triples = []
            for latency_app in latency_apps:
                sen = self.characterize_server(
                    latency_app, latency_threads=latency_threads, instances=k,
                )
                for batch_app, batch_char in zip(training, batch_chars):
                    measured = self.simulator.measure_server_degradation(
                        latency_app, batch_app, instances=k, mode=self._mode,
                        latency_threads=latency_threads,
                    )
                    triples.append((sen, batch_char, measured))
            self.server_models[k] = SMiTeModel(ridge=self._ridge).fit(triples)
        return self

    def predict(self, victim: WorkloadProfile,
                aggressor: WorkloadProfile) -> float:
        """Predicted Eq. 7 degradation of ``victim`` next to ``aggressor``."""
        return self.model.predict(
            self.characterization(victim),
            self.characterization(aggressor),
        )

    def predict_server(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        latency_threads: int | None = None,
    ) -> float:
        """Predicted latency-app degradation with N batch instances.

        The latency app's sensitivity is characterized at the *same*
        instance count (N Ruler copies) — degradation is superlinear in
        the count because shared-cache pressure accumulates, so a single
        full-complement characterization cannot simply be rescaled.
        """
        machine = self.simulator.machine
        if self._mode == "smt":
            total = latency_threads if latency_threads else machine.cores
        else:
            total = latency_threads if latency_threads else machine.cores // 2
        if not 0 <= instances <= total:
            raise ConfigurationError(
                f"instances must be in 0..{total}, got {instances}"
            )
        if instances == 0:
            return 0.0
        batch_char = self.characterization(batch_profile)
        if self.server_models:
            model = self._server_model_for(instances)
            server_char = self.characterize_server(
                latency_profile, latency_threads=latency_threads,
                instances=instances,
            )
            predicted = model.predict(server_char, batch_char)
            predicted *= self._server_calibration(
                latency_profile, instances, latency_threads
            )
            # A co-location can never speed the victim up; tiny negative
            # outputs are regression noise around zero.
            return max(0.0, predicted)
        # Fallback without server calibration: pair prediction scaled by
        # the fraction of latency threads that gain an SMT sibling.
        pair = self.model.predict(
            self.characterization(latency_profile), batch_char
        )
        return pair * instances / total

    def prefetch_server(
        self,
        latency_profiles: Sequence[WorkloadProfile],
        batch_profiles: Sequence[WorkloadProfile],
        *,
        instance_counts: Sequence[int],
        latency_threads: int | None = None,
    ) -> None:
        """Batch-solve what serving these apps reads, in one prefetch.

        Covers the batch apps' characterizations and each latency app's
        per-count server characterization (the Ruler grid, including
        the unloaded server). With server models that adds the Ruler
        characterizations behind the calibration anchor; without them,
        the latency apps' pair characterizations the fallback reads —
        the grid is still warmed there because a hot-swapped count
        model (``repro.adapt``) reads it. Characterizations already
        cached or warmed are skipped, so repeat calls are cheap.
        """
        cached = self._characterizations
        warmed = self._warmed

        def wanted(key: tuple[str, str]) -> bool:
            if key in cached or key in warmed:
                return False
            warmed.add(key)
            return True

        rulers = self._ruler_profiles()
        pair_apps = [*batch_profiles,
                     *(rulers if self.server_models else latency_profiles)]
        mode = self._mode
        pairs = [(p, ruler, mode) for p in dict.fromkeys(pair_apps)
                 if wanted((p.name, mode)) for ruler in rulers]
        servers = [(latency, ruler, k, mode, latency_threads)
                   for latency in dict.fromkeys(latency_profiles)
                   for k in dict.fromkeys(instance_counts)
                   if k > 0 and wanted(self._server_key(latency, k))
                   for ruler in rulers]
        if pairs or servers:
            self.simulator.prefetch_readings(pairs=pairs, servers=servers)

    # ------------------------------------------------------------------

    def _reset_fit_caches(self) -> None:
        """Drop what was derived from the previous fit's models and mode."""
        self._server_calibrations = {}
        self._ruler_chars = None

    def _server_key(self, latency_profile: WorkloadProfile, instances: int,
                    mode: PairMode | None = None) -> tuple[str, str]:
        """Cache key of one per-count server characterization."""
        return (f"{latency_profile.name}#server{instances}",
                mode or self._mode)

    def _ruler_profiles(self) -> list[WorkloadProfile]:
        return [self.suite[dimension].profile for dimension in self.suite]

    def _server_model_for(self, instances: int) -> SMiTeModel:
        model = self.server_models.get(instances)
        if model is None:
            # Nearest calibrated count stands in for a missing one.
            nearest = min(self.server_models,
                          key=lambda k: abs(k - instances))
            model = self.server_models[nearest]
        return model

    def _ruler_characterizations(self) -> dict[Dimension, Characterization]:
        """Each Ruler characterized as an aggressor (Con against the suite)."""
        if self._ruler_chars is None:
            self._ruler_chars = {
                dimension: self.characterization(self.suite[dimension].profile)
                for dimension in self.suite
            }
        return self._ruler_chars

    def _server_calibration(
        self,
        latency_profile: WorkloadProfile,
        instances: int,
        latency_threads: int | None,
    ) -> float:
        """Ruler-anchored correction factor for server predictions.

        The app's characterization already *is* a set of observed server
        co-locations — with Rulers as the aggressors. The model, applied
        to those same aggressors, should reproduce the observed
        sensitivities; the ratio of observed to modelled response corrects
        the systematic part of the model's extrapolation error for this
        app, using nothing beyond its own Ruler profile.
        """
        key = (latency_profile.name, instances, latency_threads)
        cached = self._server_calibrations.get(key)
        if cached is not None:
            return cached
        sen = self.characterize_server(
            latency_profile, latency_threads=latency_threads,
            instances=instances,
        )
        model = self._server_model_for(instances)
        predicted_total = 0.0
        observed_total = 0.0
        for dimension, ruler_char in self._ruler_characterizations().items():
            predicted = model.predict(sen, ruler_char)
            if predicted > 0.01:
                predicted_total += predicted
                observed_total += sen.sensitivity[dimension]
        if predicted_total <= 0.0:
            factor = 1.0
        else:
            factor = min(max(observed_total / predicted_total, 0.3), 3.0)
        self._server_calibrations[key] = factor
        return factor


def _check_owner(
    owner: WorkloadProfile | None, profile: WorkloadProfile, mode: str,
) -> None:
    """Raise if ``profile``'s name is cached for a different workload."""
    if owner is not None and owner != profile:
        raise CharacterizationError(
            f"{profile.name!r} ({mode}) is already characterized for a "
            f"different profile; give each workload a unique name, or "
            f"use seed_characterization to make a name stand for another"
        )
