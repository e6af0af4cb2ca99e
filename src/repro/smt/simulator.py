"""The user-facing simulator facade.

:class:`Simulator` wraps the fixed-point solver with the co-location
topologies the paper uses, memoizes solves and server measurements
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

import dataclasses
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

from repro.errors import ConfigurationError
from repro.obs import counter
from repro.smt.batch import solve_many
from repro.smt.diskcache import PersistentSolveCache, solve_key
from repro.smt.params import IVY_BRIDGE, MachineSpec
from repro.smt.pmu import PmuDefectModel, read_pmu
from repro.smt.results import ContextResult, RunResult
# ``solve`` is not called here; it stays importable from this module
# because benchmarks/e2e/test_harness.py checks that the layer wrappers
# patch it at this import site.
from repro.smt.solver import ContextPlacement, solve  # noqa: F401
from repro.workloads.profile import WorkloadProfile

__all__ = ["Simulator", "ContextPlacement", "PairMeasurement", "PairMode"]

PairMode = Literal["smt", "cmp"]


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
    the original indices in canonical order (to map results back).
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
    by_core: dict[int, list[int]] = {}
    for i, pl in enumerate(placements):
        by_core.setdefault(pl.core, []).append(i)
    groups = []
    for members in by_core.values():
        ordered = sorted(members,
                         key=lambda i: _profile_sort_key(placements[i].profile))
        group_key = tuple(_profile_sort_key(placements[i].profile)
                          for i in ordered)
        groups.append((group_key, ordered))
    groups.sort(key=lambda g: g[0])
    canonical: list[ContextPlacement] = []
    order: list[int] = []
    for new_core, (_key, ordered) in enumerate(groups):
        for i in ordered:
            canonical.append(ContextPlacement(placements[i].profile,
                                              core=new_core))
            order.append(i)
    return canonical, order


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
        self.pmu_defects = pmu_defects if pmu_defects is not None else PmuDefectModel()
        if isinstance(disk_cache, (str, Path)):
            disk_cache = PersistentSolveCache(disk_cache)
        self.disk_cache = disk_cache
        self._cache: dict[tuple, RunResult] = {}
        # Placement lists already pushed through prefetch, keyed by their
        # *uncanonicalized* (profile, core) tuple: repeat prefetches of
        # the same job list (every serving replay warms the same Ruler
        # grid) then skip canonicalization entirely.
        self._prefetched: set[tuple] = set()
        # Server measurements keyed on measure_server's arguments: the
        # result is a pure function of them plus the construction-time
        # machine/seed/jitter (profiles are frozen, jitter is a crc32).
        self._measurements: dict[tuple, PairMeasurement] = {}
        self._solve_count = 0

    # ------------------------------------------------------------------
    # Raw solves (no measurement jitter)

    def run(self, placements: Sequence[ContextPlacement]) -> RunResult:
        """Solve an arbitrary placement, memoized.

        Memoization is symmetry-aware: placements that differ only by
        context order or core labels share one solve, so the AxB and BxA
        halves of a pair grid cost one fixed point each.
        """
        placements = list(placements)
        counter("smt.simulator.requests").inc()
        counter("smt.simulator.canonicalizations").inc()
        canonical, order = _canonical_placements(placements)
        key = self._memo_key(canonical)
        result = self._cache.get(key)
        if result is not None:
            counter("smt.simulator.memo_hits").inc()
        else:
            disk_key = self._disk_key(canonical)
            result = self._load_from_disk(disk_key, key)
            if result is None:
                # A batch of one: the fixed point a prefetch would have
                # stored, so no result depends on which path solved first.
                counter("smt.simulator.run_solves").inc()
                self._solve_todo({key: (canonical, disk_key)})
                result = self._cache[key]
        return self._reindex(result, order, placements)

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
        todo: dict[tuple, tuple[list[ContextPlacement], str | None]] = {}
        memo_hits = 0
        for placements in placements_list:
            placements = list(placements)
            canonical, order = _canonical_placements(placements)
            key = self._memo_key(canonical)
            requests.append((key, order, placements))
            if key in self._cache:
                memo_hits += 1
            elif key not in todo:
                disk_key = self._disk_key(canonical)
                if self._load_from_disk(disk_key, key) is None:
                    todo[key] = (canonical, disk_key)
        counter("smt.simulator.requests").inc(len(requests))
        counter("smt.simulator.canonicalizations").inc(len(requests))
        counter("smt.simulator.memo_hits").inc(memo_hits)
        self._solve_todo(todo)
        return [self._reindex(self._cache[key], order, placements)
                for key, order, placements in requests]

    def prefetch(
        self, placements_list: Sequence[Sequence[ContextPlacement]],
    ) -> None:
        """Fill the solve caches in bulk without materializing results."""
        todo: dict[tuple, tuple[list[ContextPlacement], str | None]] = {}
        raw_keys: list[tuple] = []
        n_requests = 0
        memo_hits = 0
        for placements in placements_list:
            n_requests += 1
            raw_key = tuple((pl.profile, pl.core) for pl in placements)
            if raw_key in self._prefetched:
                memo_hits += 1
                continue
            raw_keys.append(raw_key)
            canonical, _order = _canonical_placements(list(placements))
            key = self._memo_key(canonical)
            if key in self._cache:
                memo_hits += 1
            elif key not in todo:
                disk_key = self._disk_key(canonical)
                if self._load_from_disk(disk_key, key) is None:
                    todo[key] = (canonical, disk_key)
        counter("smt.simulator.requests").inc(n_requests)
        counter("smt.simulator.canonicalizations").inc(n_requests)
        counter("smt.simulator.memo_hits").inc(memo_hits)
        self._solve_todo(todo)
        self._prefetched.update(raw_keys)

    # -- cache plumbing -------------------------------------------------

    @staticmethod
    def _memo_key(canonical: Sequence[ContextPlacement]) -> tuple:
        return tuple((pl.profile, pl.core) for pl in canonical)

    def _disk_key(self, canonical: Sequence[ContextPlacement]) -> str | None:
        """A canonical placement's disk-cache key (hashed once per miss)."""
        if self.disk_cache is None:
            return None
        return solve_key(self.machine, canonical)

    def _load_from_disk(self, disk_key: str | None,
                        key: tuple) -> RunResult | None:
        if disk_key is None:
            return None
        result = self.disk_cache.get(disk_key)
        if result is not None:
            self._cache[key] = result
        return result

    def _store(self, solved: list[tuple[tuple, str | None, RunResult]],
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
        self, todo: dict[tuple, tuple[list[ContextPlacement], str | None]],
    ) -> None:
        """Batch-solve memo/disk misses and store them in both caches."""
        if not todo:
            return
        solved = solve_many(self.machine,
                            [canonical for canonical, _ in todo.values()])
        self._store([(key, disk_key, result) for (key, (_, disk_key)), result
                     in zip(todo.items(), solved)])

    @staticmethod
    def _reindex(canonical_result: RunResult, order: list[int],
                 placements: list[ContextPlacement]) -> RunResult:
        """Map a canonical solve back to the caller's context order."""
        if order == list(range(len(order))) and all(
            ctx.core == pl.core
            for ctx, pl in zip(canonical_result.contexts, placements)
        ):
            return canonical_result
        inverse = {orig: pos for pos, orig in enumerate(order)}
        contexts = tuple(
            dataclasses.replace(canonical_result.contexts[inverse[i]],
                                core=pl.core)
            for i, pl in enumerate(placements)
        )
        return dataclasses.replace(canonical_result, contexts=contexts)

    def run_solo(self, profile: WorkloadProfile) -> ContextResult:
        """One context alone on the machine."""
        return self.run([ContextPlacement(profile, core=0)])[0]

    def run_pair(self, a: WorkloadProfile, b: WorkloadProfile,
                 mode: PairMode = "smt") -> RunResult:
        """Two contexts: SMT siblings on core 0, or CMP on cores 0 and 1."""
        self._check_mode(mode)
        core_b = 0 if mode == "smt" else 1
        return self.run([ContextPlacement(a, core=0),
                         ContextPlacement(b, core=core_b)])

    def server_placements(
        self,
        latency_profile: WorkloadProfile,
        batch_profile: WorkloadProfile,
        *,
        instances: int,
        mode: PairMode = "smt",
        latency_threads: int | None = None,
    ) -> list[ContextPlacement]:
        """The placement list :meth:`run_server` solves (for prefetching)."""
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
        """Solo IPC as a measurement (jittered)."""
        ipc = self.run_solo(profile).ipc
        return ipc * self._jitter_factor("solo", profile.name)

    def measure_pair(self, a: WorkloadProfile, b: WorkloadProfile,
                     mode: PairMode = "smt") -> PairMeasurement:
        """Co-run IPCs and Eq. 7 degradations, as measurements."""
        result = self.run_pair(a, b, mode)
        ipc_a = result[0].ipc * self._jitter_factor(mode, a.name, b.name, "a")
        ipc_b = result[1].ipc * self._jitter_factor(mode, a.name, b.name, "b")
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
        solo = self.run_server(latency_profile, batch_profile, instances=0,
                               mode=mode, latency_threads=latency_threads)
        loaded = self.run_server(latency_profile, batch_profile,
                                 instances=instances, mode=mode,
                                 latency_threads=latency_threads)
        solo_threads = solo.all_named(latency_profile.name)
        loaded_threads = loaded.all_named(latency_profile.name)
        solo_ipc = sum(t.ipc for t in solo_threads) / len(solo_threads)  # smite: noqa[SMT302]: run_server always places at least one latency thread
        loaded_ipc = sum(t.ipc for t in loaded_threads) / len(loaded_threads)  # smite: noqa[SMT302]: run_server always places at least one latency thread
        loaded_ipc *= self._jitter_factor(
            mode, latency_profile.name, batch_profile.name, f"server{instances}"
        )
        batch_threads = loaded.all_named(batch_profile.name)
        batch_ipc = sum(t.ipc for t in batch_threads) / len(batch_threads)  # smite: noqa[SMT302]: instances > 0 is validated above, so batch threads exist
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
        """Solo-run PMU counters with the configured defect model."""
        return read_pmu(self.run_solo(profile), self.pmu_defects)

    # ------------------------------------------------------------------

    @property
    def solve_count(self) -> int:
        """Number of distinct (uncached) steady-state solves performed."""
        return self._solve_count

    def clear_cache(self) -> None:
        """Forget every solve, prefetch mark and server measurement."""
        self._cache.clear()
        self._prefetched.clear()
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
