"""The user-facing simulator facade.

:class:`Simulator` wraps the fixed-point solver with the co-location
topologies the paper uses, memoizes solves and measurement readings
(profiles are immutable), and applies deterministic *measurement jitter*
to everything it reports as a measurement — real IPC readings vary run
to run, and the paper's 2-3% prediction-error floor partly reflects
that.

Topologies:

- ``run_solo`` — one context, whole machine to itself;
- ``run_pair(a, b, mode="smt")`` — both contexts on core 0 (SMT siblings);
- ``run_pair(a, b, mode="cmp")`` — one context on each of two cores
  (shared L3/bandwidth only);
- ``run_server`` — the CloudSuite topology: one latency-sensitive thread
  per core, plus 0..cores batch instances on sibling contexts (SMT) or on
  otherwise-idle cores (CMP).

Degradations follow the paper's Equation 7 on the *measured* (jittered)
IPCs.
"""

from __future__ import annotations

import zlib
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Literal, Sequence

from repro.errors import ConfigurationError
from repro.obs import counter
from repro.smt.batch import solve_many
from repro.smt.diskcache import PersistentSolveCache, solve_key
from repro.smt.params import IVY_BRIDGE, MachineSpec
from repro.smt.pmu import PmuDefectModel, read_pmu
from repro.smt.results import ContextResult, RunResult, Solved
# ``solve`` is not called here; it stays importable from this module
# because benchmarks/e2e/test_harness.py checks that the layer wrappers
# patch it at this import site.
from repro.smt.solver import ContextPlacement, solve  # noqa: F401
from repro.workloads.profile import WorkloadProfile

__all__ = ["Simulator", "ContextPlacement", "PairMeasurement", "PairMode"]

PairMode = Literal["smt", "cmp"]

#: Solves to batch: memo key -> (canonical placement, disk-cache key).
_Todo = dict[tuple, tuple[list[ContextPlacement], str | None]]


def _profile_sort_key(profile: WorkloadProfile) -> tuple[str, str]:
    """A deterministic (cross-process) total order on profiles.

    Cached on the (immutable) profile: rendering the full value tuple is
    much too slow to redo on every canonicalization of the hot
    measurement paths.
    """
    try:
        return profile.__dict__["_sort_key"]
    except KeyError:
        sort_key = (profile.name, repr(profile.key()))
        object.__setattr__(profile, "_sort_key", sort_key)
        return sort_key


def _canonical_placements(
    placements: Sequence[ContextPlacement],
) -> tuple[list[ContextPlacement], list[int]]:
    """Reduce a placement to its canonical symmetric form.

    Cores are homogeneous and context order is irrelevant to the model's
    fixed point, so ``run_pair(a, b)`` and ``run_pair(b, a)`` — or any
    core relabeling — describe one physical co-location. Members of each
    core are sorted, cores are sorted by their member multisets and
    relabeled densely from zero. Returns the canonical placement plus
    the original indices in canonical order (to map results back). A
    context whose core keeps its label is reused, not copied.
    """
    n = len(placements)
    if n == 1:
        pl = placements[0]
        if pl.core == 0:
            return [pl], [0]
        return [ContextPlacement(pl.profile, core=0)], [0]
    if n == 2 and placements[0].core == placements[1].core:
        a, b = placements
        if _profile_sort_key(a.profile) <= _profile_sort_key(b.profile):
            pair, order = (a, b), [0, 1]
        else:
            pair, order = (b, a), [1, 0]
        if a.core == 0:
            return list(pair), order
        return [ContextPlacement(pair[0].profile, core=0),
                ContextPlacement(pair[1].profile, core=0)], order
    keys = [_profile_sort_key(pl.profile) for pl in placements]
    by_core: dict[int, list[int]] = {}
    for i, pl in enumerate(placements):
        by_core.setdefault(pl.core, []).append(i)
    groups = []
    for members in by_core.values():
        members.sort(key=keys.__getitem__)
        groups.append((tuple([keys[i] for i in members]), members))
    groups.sort(key=itemgetter(0))
    canonical: list[ContextPlacement] = []
    order: list[int] = []
    for new_core, (_key, members) in enumerate(groups):
        for i in members:
            pl = placements[i]
            canonical.append(pl if pl.core == new_core
                             else ContextPlacement(pl.profile, core=new_core))
        order += members
    return canonical, order


def _caller_order(solved: Solved, order: list[int]) -> list[float]:
    """A canonical solve's context IPCs in the caller's order."""
    ipcs: list = [None] * len(order)
    for ipc, i in zip(solved.ipcs(), order):
        ipcs[i] = ipc
    return ipcs


def _mean_ipc(placements: Sequence[ContextPlacement], ipcs: list[float],
              name: str) -> float:
    """Mean IPC of the named contexts, summed in the caller's order.

    ``ipcs`` are in the caller's order, as ``RunResult.all_named`` on a
    reindexed result would give them, so the float is bitwise the same.
    """
    named = [ipc for pl, ipc in zip(placements, ipcs)
             if pl.profile.name == name]
    return sum(named) / len(named)  # smite: noqa[SMT302]: callers only ask for names they placed


@dataclass(frozen=True)
class PairMeasurement:
    """Jittered IPC measurements and Eq. 7 degradations for a co-run pair."""

    ipc_a: float
    ipc_b: float
    degradation_a: float
    degradation_b: float


class Simulator:
    """Analytic SMT/CMP interference simulator for one machine.

    ``jitter`` is the half-width of the uniform multiplicative measurement
    noise (0 disables it); it is derived deterministically from the
    workload names and topology so repeated measurements agree, as they
    would for a pinned, steady-state real measurement.

    Every read goes through one resolve step: canonical placement, then
    the solve memo, then the disk cache, then a batch-of-one solve. The
    memo holds :class:`~repro.smt.results.Solved` handles (a solve's
    rows in its batch); only ``run``/``run_many`` (and the ``run_*``
    topologies) and the solo PMU reading build result objects, and
    measurements read IPCs straight from the rows.
    Readings that are pure functions of their arguments plus the
    construction-time machine/seed/jitter are memoized on top (profiles
    are frozen, jitter is a crc32): solo IPCs and solo PMU readings per
    profile, the unloaded-server latency IPC per (latency profile, mode,
    latency threads), and server measurements per ``measure_server``
    arguments. Assigning ``pmu_defects`` drops the PMU readings.

    Callers warm the caches with the readings they are about to make
    (:meth:`prefetch_readings`); only this class knows which placements
    a reading resolves, so a sweep never builds a placement grid.
    """

    def __init__(
        self,
        machine: MachineSpec = IVY_BRIDGE,
        *,
        jitter: float = 0.01,
        seed: int = 0,
        pmu_defects: PmuDefectModel | None = None,
        disk_cache: PersistentSolveCache | str | Path | None = None,
    ) -> None:
        if jitter < 0 or jitter >= 0.5:
            raise ConfigurationError(f"jitter must be in [0, 0.5), got {jitter}")
        self.machine = machine
        self.jitter = jitter
        self.seed = seed
        self._solo_pmu: dict[WorkloadProfile, dict[str, float]] = {}
        self.pmu_defects = pmu_defects if pmu_defects is not None else PmuDefectModel()
        if isinstance(disk_cache, (str, Path)):
            disk_cache = PersistentSolveCache(disk_cache)
        self.disk_cache = disk_cache
        self._cache: dict[tuple, Solved] = {}
        # Readings already pushed through prefetch_readings: a repeat
        # prefetch (every serving epoch warms the same Ruler grid) skips
        # them before any placement is built.
        self._prefetched: set[tuple] = set()
        self._solo_ipc: dict[WorkloadProfile, float] = {}
        self._unloaded_ipc: dict[tuple, float] = {}
        self._measurements: dict[tuple, PairMeasurement] = {}
        self._server_placements: dict[tuple, tuple[ContextPlacement, ...]] = {}
        self._solve_count = 0

    @property
    def pmu_defects(self) -> PmuDefectModel:
        """The counter defect model ``read_solo_pmu`` applies."""
        return self._pmu_defects

    @pmu_defects.setter
    def pmu_defects(self, defects: PmuDefectModel) -> None:
        self._pmu_defects = defects
        self._solo_pmu.clear()

    # ------------------------------------------------------------------
    # Raw solves (no measurement jitter)

    def run(self, placements: Sequence[ContextPlacement]) -> RunResult:
        """Solve an arbitrary placement, memoized.

        Memoization is symmetry-aware: placements that differ only by
        context order or core labels share one solve, so the AxB and BxA
        halves of a pair grid cost one fixed point each.
        """
        placements = list(placements)
        return self._materialize(*self._resolve(placements), placements)

    def run_many(
        self, placements_list: Sequence[Sequence[ContextPlacement]],
    ) -> list[RunResult]:
        """Solve many independent placements, batched.

        Cache misses (memory, then disk) are deduplicated by canonical
        key and handed to the vectorized batch solver in one stacked
        iteration; results land in both caches. Output order matches the
        input.
        """
        requests = []
        todo: _Todo = {}
        memo_hits = 0
        with self._lookup_pass():
            for placements in placements_list:
                placements = list(placements)
                canonical, order = _canonical_placements(placements)
                key, memoized = self._lookup(canonical, todo)
                memo_hits += memoized is not None
                requests.append((key, order, placements))
        self._count(len(requests), memo_hits)
        self._solve_todo(todo)
        return [self._materialize(self._cache[key], order, placements)
                for key, order, placements in requests]

    def prefetch(
        self, placements_list: Sequence[Sequence[ContextPlacement]],
    ) -> None:
        """Fill the solve caches in bulk without materializing results."""
        todo: _Todo = {}
        n_requests = memo_hits = 0
        with self._lookup_pass():
            for placements in placements_list:
                n_requests += 1
                canonical, _order = _canonical_placements(placements)
                memo_hits += self._lookup(canonical, todo)[1] is not None
        self._count(n_requests, memo_hits)
        self._solve_todo(todo)

    def prefetch_readings(
        self,
        *,
        solos: Iterable[WorkloadProfile] = (),
        pairs: Iterable[tuple[WorkloadProfile, WorkloadProfile,
                              PairMode]] = (),
        servers: Iterable[tuple[WorkloadProfile, WorkloadProfile, int,
                                PairMode, int | None]] = (),
    ) -> None:
        """Solve, in one batch, every placement these readings resolve.

        ``solos`` are profiles (``measure_solo_ipc``, ``read_solo_pmu``,
        ``run_solo``), ``pairs`` are ``(a, b, mode)`` (``measure_pair``)
        and ``servers`` are ``measure_server``'s memo key ``(latency,
        batch, instances, mode, latency_threads)``. A pair reading also
        reads both solo runs; a server reading reads the unloaded server,
        the loaded server and the batch app's solo run, and one with no
        batch instance reads nothing. Readings already warmed are
        skipped, as are the solo runs and unloaded servers they share.
        """
        warmed = self._prefetched
        fresh: dict[tuple, Sequence[ContextPlacement]] = {}

        def want(key: tuple) -> bool:
            return key not in warmed and key not in fresh

        def solo(profile: WorkloadProfile) -> None:
            key = ("solo", profile)
            if want(key):
                fresh[key] = [ContextPlacement(profile, core=0)]

        for profile in solos:
            solo(profile)
        for a, b, mode in pairs:
            key = ("pair", a, b, mode)
            if want(key):
                fresh[key] = self._pair_placements(a, b, mode)
                solo(a)
                solo(b)
        for latency, batch, instances, mode, threads in servers:
            key = ("server", latency, batch, instances, mode, threads)
            if instances == 0 or not want(key):
                continue
            fresh[key] = self.server_placements(
                latency, batch, instances=instances, mode=mode,
                latency_threads=threads)
            unloaded = ("unloaded", latency, mode, threads)
            if want(unloaded):
                fresh[unloaded] = self.server_placements(
                    latency, latency, instances=0, mode=mode,
                    latency_threads=threads)
            solo(batch)
        if fresh:
            self.prefetch(list(fresh.values()))
            warmed.update(fresh)

    # -- the resolve step -----------------------------------------------

    def _resolve(self, placements: Sequence[ContextPlacement],
                 ) -> tuple[Solved, list[int]]:
        """One placement's canonical solve and its contexts' caller indices.

        ``run`` and every measurement read through here. A miss in both
        caches is solved as a batch of one: the fixed point a prefetch
        would have stored, so no result depends on which path solved
        first.
        """
        canonical, order = _canonical_placements(placements)
        todo: _Todo = {}
        key, result = self._lookup(canonical, todo)
        self._count(1, result is not None)
        if result is None:
            if todo:
                counter("smt.simulator.run_solves").inc()
                self._solve_todo(todo)
            result = self._cache[key]
        return result, order

    def _lookup_pass(self) -> AbstractContextManager[None]:
        """One disk lookup pass: misses list new segments at most once."""
        if self.disk_cache is None:
            return nullcontext()
        return self.disk_cache.lookup_pass()

    def _lookup(
        self, canonical: list[ContextPlacement],
        todo: _Todo,
    ) -> tuple[tuple, Solved | None]:
        """A canonical placement's memo key and memoized solve, if any.

        A memo miss reads the disk cache (once per key: a key already in
        ``todo`` is not looked up again); a disk hit lands in the memo
        and a disk miss joins ``todo`` for :meth:`_solve_todo`.
        """
        key = tuple([(pl.profile, pl.core) for pl in canonical])
        memoized = self._cache.get(key)
        if memoized is None and key not in todo:
            disk_key = found = None
            if self.disk_cache is not None:
                disk_key = solve_key(self.machine, canonical)
                found = self.disk_cache.get(disk_key)
            if found is None:
                todo[key] = (canonical, disk_key)
            else:
                self._cache[key] = found
        return key, memoized

    @staticmethod
    def _count(requests: int, memo_hits: int) -> None:
        """Count memo reads; each one canonicalized its placement once."""
        counter("smt.simulator.requests").inc(requests)
        counter("smt.simulator.memo_hits").inc(memo_hits)

    def _store(self, solved: list[tuple[tuple, str | None, Solved]],
               ) -> None:
        """Memoize fresh solves and persist them as one disk segment."""
        fresh = {}
        for key, disk_key, result in solved:
            self._cache[key] = result
            if disk_key is not None:
                fresh[disk_key] = result
        self._solve_count += len(solved)
        if fresh:
            self.disk_cache.put(fresh)

    def _solve_todo(
        self, todo: _Todo,
    ) -> None:
        """Batch-solve memo/disk misses and store them in both caches."""
        if not todo:
            return
        solved = solve_many(self.machine,
                            [canonical for canonical, _ in todo.values()])
        self._store([(key, disk_key, solved.problem(i))
                     for i, (key, (_, disk_key)) in enumerate(todo.items())])

    @staticmethod
    def _materialize(solved: Solved, order: list[int],
                     placements: list[ContextPlacement]) -> RunResult:
        """A canonical solve as a result in the caller's context order.

        Each context carries the caller's profile and core label.
        """
        callers = [placements[i] for i in order]
        return solved.result([pl.profile for pl in callers],
                             [pl.core for pl in callers], order)

    def run_solo(self, profile: WorkloadProfile) -> ContextResult:
        """One context alone on the machine."""
        return self.run([ContextPlacement(profile, core=0)])[0]

    def run_pair(self, a: WorkloadProfile, b: WorkloadProfile,
                 mode: PairMode = "smt") -> RunResult:
        """Two contexts: SMT siblings on core 0, or CMP on cores 0 and 1."""
        return self.run(self._pair_placements(a, b, mode))

    def _pair_placements(self, a: WorkloadProfile, b: WorkloadProfile,
                         mode: PairMode) -> list[ContextPlacement]:
        self._check_mode(mode)
        core_b = 0 if mode == "smt" else 1
        return [ContextPlacement(a, core=0), ContextPlacement(b, core=core_b)]

    def server_placements(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        mode: PairMode = "smt",
        latency_threads: int | None = None,
    ) -> tuple[ContextPlacement, ...]:
        """The placements :meth:`run_server` and :meth:`measure_server` solve.

        Memoized on the arguments: a repeat call returns the same tuple.
        Invalid arguments raise on every call. To warm the caches, hand
        the readings to :meth:`prefetch_readings` instead.
        """
        key = (latency_profile, batch_profile, instances, mode,
               latency_threads)
        placements = self._server_placements.get(key)
        if placements is None:
            placements = self._server_placements[key] = tuple(
                self._build_server_placements(*key))
        return placements

    def _build_server_placements(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        instances: int,
        mode: PairMode,
        latency_threads: int | None,
    ) -> list[ContextPlacement]:
        self._check_mode(mode)
        cores = self.machine.cores
        if mode == "smt":
            threads = latency_threads if latency_threads is not None else cores
            if not 0 < threads <= cores:
                raise ConfigurationError(
                    f"latency threads must be in 1..{cores}, got {threads}"
                )
            if not 0 <= instances <= threads:
                raise ConfigurationError(
                    f"SMT batch instances must be in 0..{threads}, got {instances}"
                )
            placements = [ContextPlacement(latency_profile, core=i)
                          for i in range(threads)]
            placements += [ContextPlacement(batch_profile, core=i)
                           for i in range(instances)]
        else:
            threads = latency_threads if latency_threads is not None else cores // 2
            if not 0 < threads <= cores:
                raise ConfigurationError(
                    f"latency threads must be in 1..{cores}, got {threads}"
                )
            if not 0 <= instances <= cores - threads:
                raise ConfigurationError(
                    f"CMP batch instances must be in 0..{cores - threads}, "
                    f"got {instances}"
                )
            placements = [ContextPlacement(latency_profile, core=i)
                          for i in range(threads)]
            placements += [ContextPlacement(batch_profile, core=threads + i)
                           for i in range(instances)]
        return placements

    def run_server(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        mode: PairMode = "smt",
        latency_threads: int | None = None,
    ) -> RunResult:
        """The CloudSuite server topology (Section IV-B2).

        SMT mode: ``latency_threads`` (default: one per core, i.e. a
        half-loaded server) latency contexts on distinct cores, plus
        ``instances`` batch contexts on the sibling SMT slots of the first
        cores. CMP mode: latency threads on the first cores, batch
        instances on the remaining (otherwise idle) cores.
        """
        return self.run(self.server_placements(
            latency_profile, batch_profile, instances=instances, mode=mode,
            latency_threads=latency_threads,
        ))

    # ------------------------------------------------------------------
    # Measurements (with jitter) and Eq. 7 degradations

    def measure_solo_ipc(self, profile: WorkloadProfile) -> float:
        """Solo IPC as a measurement (jittered), memoized per profile."""
        ipc = self._solo_ipc.get(profile)
        if ipc is None:
            (solo,) = _caller_order(
                *self._resolve([ContextPlacement(profile, core=0)]))
            ipc = solo * self._jitter_factor("solo", profile.name)
            self._solo_ipc[profile] = ipc
        return ipc

    def measure_pair(self, a: WorkloadProfile, b: WorkloadProfile,
                     mode: PairMode = "smt") -> PairMeasurement:
        """Co-run IPCs and Eq. 7 degradations, as measurements."""
        ipc_a, ipc_b = _caller_order(
            *self._resolve(self._pair_placements(a, b, mode)))
        ipc_a *= self._jitter_factor(mode, a.name, b.name, "a")
        ipc_b *= self._jitter_factor(mode, a.name, b.name, "b")
        solo_a = self.measure_solo_ipc(a)
        solo_b = self.measure_solo_ipc(b)
        return PairMeasurement(
            ipc_a=ipc_a,
            ipc_b=ipc_b,
            degradation_a=(solo_a - ipc_a) / solo_a,  # smite: noqa[SMT302]: solver IPCs are 1/cpi of a positive CPI stack
            degradation_b=(solo_b - ipc_b) / solo_b,  # smite: noqa[SMT302]: solver IPCs are 1/cpi of a positive CPI stack
        )

    def measure_server(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        mode: PairMode = "smt",
        latency_threads: int | None = None,
    ) -> PairMeasurement:
        """Measured server-topology IPCs and Eq. 7 degradations.

        The latency side is averaged over the latency app's threads (they
        are identical copies; some share a core with a batch instance,
        some do not, and all share the L3/bandwidth with everything); the
        batch side is averaged over the batch instances and compared to a
        solo run of one instance. Memoized: repeats cost one dict lookup.
        """
        key = (latency_profile, batch_profile, instances, mode,
               latency_threads)
        measurement = self._measurements.get(key)
        if measurement is None:
            measurement = self._measure_server(
                latency_profile, batch_profile, instances=instances,
                mode=mode, latency_threads=latency_threads,
            )
            self._measurements[key] = measurement
        return measurement

    def _measure_server(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        mode: PairMode,
        latency_threads: int | None,
    ) -> PairMeasurement:
        if instances <= 0:
            raise ConfigurationError(
                "measure_server needs at least one batch instance"
            )
        solo_ipc = self._unloaded_server_ipc(latency_profile, mode,
                                             latency_threads)
        placements = self.server_placements(
            latency_profile, batch_profile, instances=instances, mode=mode,
            latency_threads=latency_threads,
        )
        loaded = _caller_order(*self._resolve(placements))
        loaded_ipc = _mean_ipc(placements, loaded, latency_profile.name)
        loaded_ipc *= self._jitter_factor(
            mode, latency_profile.name, batch_profile.name, f"server{instances}"
        )
        batch_ipc = _mean_ipc(placements, loaded, batch_profile.name)
        batch_ipc *= self._jitter_factor(
            mode, latency_profile.name, batch_profile.name,
            f"server-batch{instances}"
        )
        batch_solo = self.measure_solo_ipc(batch_profile)
        return PairMeasurement(
            ipc_a=loaded_ipc,
            ipc_b=batch_ipc,
            degradation_a=(solo_ipc - loaded_ipc) / solo_ipc,  # smite: noqa[SMT302]: solver IPCs are 1/cpi of a positive CPI stack
            degradation_b=(batch_solo - batch_ipc) / batch_solo,  # smite: noqa[SMT302]: solver IPCs are 1/cpi of a positive CPI stack
        )

    def _unloaded_server_ipc(self, latency_profile: WorkloadProfile,
                             mode: PairMode,
                             latency_threads: int | None) -> float:
        """Mean latency-thread IPC of the server with no batch instance.

        Memoized on its arguments: the placement holds no batch context,
        so every batch app of a sweep shares it.
        """
        key = (latency_profile, mode, latency_threads)
        ipc = self._unloaded_ipc.get(key)
        if ipc is None:
            placements = self.server_placements(
                latency_profile, latency_profile, instances=0, mode=mode,
                latency_threads=latency_threads,
            )
            ipc = _mean_ipc(placements,
                            _caller_order(*self._resolve(placements)),
                            latency_profile.name)
            self._unloaded_ipc[key] = ipc
        return ipc

    def measure_server_degradation(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        mode: PairMode = "smt",
        latency_threads: int | None = None,
    ) -> float:
        """Measured Eq. 7 degradation of the latency app on a server."""
        if instances == 0:
            return 0.0
        return self.measure_server(
            latency_profile, batch_profile, instances=instances, mode=mode,
            latency_threads=latency_threads,
        ).degradation_a

    def read_solo_pmu(self, profile: WorkloadProfile) -> dict[str, float]:
        """Solo-run PMU counters with the configured defect model.

        Memoized per profile; each call returns a fresh copy.
        """
        counters = self._solo_pmu.get(profile)
        if counters is None:
            placements = [ContextPlacement(profile, core=0)]
            solo = self._materialize(*self._resolve(placements), placements)
            counters = read_pmu(solo[0], self.pmu_defects)
            self._solo_pmu[profile] = counters
        return dict(counters)

    # ------------------------------------------------------------------

    @property
    def solve_count(self) -> int:
        """Number of distinct (uncached) steady-state solves performed."""
        return self._solve_count

    def clear_cache(self) -> None:
        """Forget every solve, warmed reading and memoized reading.

        The memoized readings are the solo IPCs, the solo PMU readings,
        the unloaded-server IPCs and the server measurements; with the
        warmed readings gone, a repeat :meth:`prefetch_readings` solves
        its placements again. Server placement tuples are kept: they
        hold no solve.
        """
        self._cache.clear()
        self._prefetched.clear()
        self._solo_ipc.clear()
        self._solo_pmu.clear()
        self._unloaded_ipc.clear()
        self._measurements.clear()

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in ("smt", "cmp"):
            raise ConfigurationError(f"mode must be 'smt' or 'cmp', got {mode!r}")

    def _jitter_factor(self, *key_parts: str) -> float:
        if self.jitter == 0.0:
            return 1.0
        key = "|".join((self.machine.name, str(self.seed), *key_parts))
        digest = zlib.crc32(key.encode())
        unit = (digest % 1_000_003) / 1_000_003.0
        return 1.0 + self.jitter * (2.0 * unit - 1.0)
