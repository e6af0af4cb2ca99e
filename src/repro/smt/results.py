"""Result types produced by the SMT simulator.

A solve leaves the batch solver as columns: a :class:`SolvedBatch` holds
one float row per context and a few numbers per problem, and
:class:`Solved` is one problem's rows. The :class:`RunResult` /
:class:`ContextResult` objects are built from those rows only when a
caller asks for one (``batch[i]``, :meth:`Solved.result`); readings that
need only IPCs take them straight from the rows (:meth:`Solved.ipcs`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.opcodes import ALL_PORTS
from repro.smt.cache import HitFractions
from repro.workloads.profile import WorkloadProfile

__all__ = ["CpiBreakdown", "ContextResult", "RunResult", "Solved",
           "SolvedBatch", "N_COLUMNS", "row_offsets"]


@dataclass(frozen=True)
class CpiBreakdown:
    """Where a context's cycles per instruction come from.

    ``compute`` is the binding throughput bound — the max of the front-end,
    per-port, and dependency-chain terms (the individual terms are kept for
    inspection); ``memory`` is stall cycles in the cache/DRAM hierarchy;
    the rest are fixed penalties.
    """

    frontend: float
    port: float
    dependency: float
    compute: float
    contention: float
    smt_overhead: float
    memory: float
    branch: float
    tlb: float
    icache: float

    @property
    def total(self) -> float:
        return (self.compute + self.contention + self.smt_overhead
                + self.memory + self.branch + self.tlb + self.icache)


@dataclass(frozen=True)
class ContextResult:
    """Steady-state outcome for one hardware context."""

    profile: WorkloadProfile
    core: int
    ipc: float
    breakdown: CpiBreakdown
    hits: HitFractions
    port_utilization: Mapping[int, float]
    effective_capacities: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.ipc <= 0:
            raise ConfigurationError(
                f"{self.profile.name}: non-positive IPC {self.ipc}"
            )

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def cpi(self) -> float:
        return 1.0 / self.ipc


@dataclass(frozen=True)
class RunResult:
    """Outcome of one multi-context steady-state solve."""

    machine_name: str
    contexts: tuple[ContextResult, ...]
    dram_utilization: float
    iterations: int
    extras: Mapping[str, float] = field(default_factory=dict)

    def __getitem__(self, index: int) -> ContextResult:
        return self.contexts[index]

    def by_name(self, name: str) -> ContextResult:
        """First context running the named profile."""
        for ctx in self.contexts:
            if ctx.name == name:
                return ctx
        raise KeyError(name)

    def all_named(self, name: str) -> list[ContextResult]:
        """Every context running the named profile (multi-instance runs)."""
        return [ctx for ctx in self.contexts if ctx.name == name]

    @property
    def aggregate_port_utilization(self) -> dict[int, float]:
        """Chip-wide per-port utilization summed over same-core contexts.

        Used for the Figure 3/5 utilization CDFs, which aggregate the two
        co-located contexts of a core.
        """
        agg: dict[int, float] = {}
        for ctx in self.contexts:
            for port, util in ctx.port_utilization.items():
                agg[port] = agg.get(port, 0.0) + util
        return agg


# A context's row in a solved batch: IPC, the CpiBreakdown terms in field
# order, the HitFractions, the effective capacities, then one
# utilization per port in ``ALL_PORTS`` order.
_BREAKDOWN = slice(1, 1 + len(fields(CpiBreakdown)))
_HITS = slice(_BREAKDOWN.stop, _BREAKDOWN.stop + 4)
_CAPACITIES = slice(_HITS.stop, _HITS.stop + 3)
_PORTS = slice(_CAPACITIES.stop, _CAPACITIES.stop + len(ALL_PORTS))
#: Columns of :attr:`SolvedBatch.values`.
N_COLUMNS = _PORTS.stop


def row_offsets(counts: Sequence[int]) -> np.ndarray:
    """Row offsets of problems with ``counts`` contexts each."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _context(profile: WorkloadProfile, core: int,
             row: list[float]) -> ContextResult:
    return ContextResult(
        profile=profile,
        core=core,
        ipc=row[0],
        breakdown=CpiBreakdown(*row[_BREAKDOWN]),
        hits=HitFractions(*row[_HITS]),
        port_utilization=dict(zip(ALL_PORTS, row[_PORTS])),
        effective_capacities=tuple(row[_CAPACITIES]),
    )


class SolvedBatch(Sequence):
    """Independent solves of one machine, as columns.

    ``values`` has one row of :data:`N_COLUMNS` floats per context
    (problems in order, each problem's contexts in placement order) and
    ``core`` each context's core. Per problem there are
    ``dram_utilization`` and ``iterations``; problem ``i`` owns rows
    ``offsets[i]:offsets[i + 1]``. ``profiles`` names each row's
    profile; a batch read back from the disk cache has ``None`` there
    (so no ``batch[i]``), and its problems are materialized with their
    caller's profiles.

    ``batch[i]`` builds problem ``i``'s :class:`RunResult`;
    :meth:`problem` returns its rows as a :class:`Solved` handle.
    """

    __slots__ = ("machine_name", "profiles", "core", "values",
                 "dram_utilization", "iterations", "offsets", "_bounds")

    def __init__(self, machine_name: str,
                 profiles: tuple[WorkloadProfile, ...] | None,
                 core: np.ndarray, values: np.ndarray,
                 dram_utilization: np.ndarray, iterations: np.ndarray,
                 offsets: np.ndarray) -> None:
        self.machine_name = machine_name
        self.profiles = profiles
        self.core = core
        self.values = values
        self.dram_utilization = dram_utilization
        self.iterations = iterations
        self.offsets = offsets
        self._bounds: list[int] = offsets.tolist()

    @classmethod
    def from_results(cls, results: Sequence[RunResult]) -> "SolvedBatch":
        """Result objects of one machine as a batch: ``batch[i]`` equals
        ``results[i]`` (the scalar solver's results, for instance)."""
        contexts = [ctx for result in results for ctx in result.contexts]
        terms = [f.name for f in fields(CpiBreakdown)]
        return cls(
            results[0].machine_name,
            tuple([ctx.profile for ctx in contexts]),
            np.array([ctx.core for ctx in contexts], dtype=np.int64),
            np.array([
                [ctx.ipc, *(getattr(ctx.breakdown, t) for t in terms),
                 ctx.hits.l1, ctx.hits.l2, ctx.hits.l3, ctx.hits.memory,
                 *ctx.effective_capacities,
                 *(ctx.port_utilization[port] for port in ALL_PORTS)]
                for ctx in contexts]),
            np.array([result.dram_utilization for result in results]),
            np.array([result.iterations for result in results],
                     dtype=np.int64),
            row_offsets([len(result.contexts) for result in results]),
        )

    @classmethod
    def gather(cls, problems: Sequence["Solved"]) -> "SolvedBatch":
        """The given problems (at least one, all of one machine), in
        order, as one batch without profiles."""
        return cls(
            problems[0].batch.machine_name, None,
            np.concatenate([p.batch.core[p.start:p.stop] for p in problems]),
            np.concatenate([p.batch.values[p.start:p.stop]
                            for p in problems]),
            np.array([p.dram_utilization for p in problems]),
            np.array([p.iterations for p in problems], dtype=np.int64),
            row_offsets([p.stop - p.start for p in problems]),
        )

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, index: int) -> RunResult:  # type: ignore[override]
        problem = self.problem(index)
        return problem.result(self.profiles[problem.start:problem.stop])

    def problem(self, index: int) -> "Solved":
        """Problem ``index``'s rows, without building any result object."""
        index = range(len(self))[index]
        return Solved(self, index, self._bounds[index],
                      self._bounds[index + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolvedBatch):
            return NotImplemented
        return (self.machine_name == other.machine_name
                and self.profiles == other.profiles
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in ("core", "values", "dram_utilization",
                                     "iterations", "offsets")))

    __hash__ = None  # type: ignore[assignment]


class Solved:
    """One problem of a :class:`SolvedBatch`: its rows, read in place.

    Two handles are equal when their numbers are (machine, cores, rows,
    DRAM utilization, iterations); profiles are not part of a handle.
    """

    __slots__ = ("batch", "index", "start", "stop")

    def __init__(self, batch: SolvedBatch, index: int, start: int,
                 stop: int) -> None:
        self.batch = batch
        self.index = index
        self.start = start
        self.stop = stop

    @property
    def dram_utilization(self) -> float:
        return self.batch.dram_utilization[self.index].item()

    @property
    def iterations(self) -> int:
        return self.batch.iterations[self.index].item()

    def ipcs(self) -> list[float]:
        """Each context's IPC, in placement order."""
        return self.batch.values[self.start:self.stop, 0].tolist()

    def result(self, profiles: Sequence[WorkloadProfile],
               cores: Sequence[int] | None = None,
               order: Sequence[int] | None = None) -> RunResult:
        """The problem as a :class:`RunResult`.

        ``profiles`` (and ``cores``, default the solved ones) are given
        per row. With ``order``, row ``j`` becomes context ``order[j]``.
        """
        batch = self.batch
        if cores is None:
            cores = batch.core[self.start:self.stop].tolist()
        contexts: list = [None] * len(cores)
        for j, row in enumerate(batch.values[self.start:self.stop].tolist()):
            contexts[j if order is None else order[j]] = _context(
                profiles[j], cores[j], row)
        return RunResult(
            machine_name=batch.machine_name,
            contexts=tuple(contexts),
            dram_utilization=self.dram_utilization,
            iterations=self.iterations,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solved):
            return NotImplemented
        mine, theirs = self.batch, other.batch
        return (mine.machine_name == theirs.machine_name
                and self.iterations == other.iterations
                and self.dram_utilization == other.dram_utilization
                and np.array_equal(mine.core[self.start:self.stop],
                                   theirs.core[other.start:other.stop])
                and np.array_equal(mine.values[self.start:self.stop],
                                   theirs.values[other.start:other.stop]))

    __hash__ = None  # type: ignore[assignment]
