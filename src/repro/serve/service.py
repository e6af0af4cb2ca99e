"""The online prediction service: LRU-fronted SMiTe with admission control.

:class:`PredictionService` is the serving-side face of the
:class:`~repro.core.predictor.SMiTe` predictor. Three layers keep a
replayed day of traffic cheap:

1. an in-memory **LRU** keyed on ``(latency app, batch profile,
   max instances)`` sits in front of the predictor (and therefore in
   front of the persistent ``smt.diskcache``) — a warm day of traffic
   re-asks the same few hundred questions;
2. **request micro-batching** — at each event epoch the engine announces
   the epoch's decision candidates up front, and every simulator solve a
   cache miss will need (batch Ruler co-runs, per-count server
   characterizations) is pushed through
   :meth:`Simulator.prefetch_readings` as one batched fixed point;
3. **admission control** — each epoch has a simulated decision-latency
   budget; once the epoch's accumulated decision cost would exceed it,
   further arrivals are *shed* to the no-co-location baseline
   (graceful degradation, the :class:`NoColocationPolicy` answer).

Decision latency is charged from a deterministic cost model over the
simulated clock (a cache hit costs ``hit_cost_ms``, a miss
``miss_cost_ms``) — never from a wall clock, so replays stay
byte-identical.

:class:`RandomDecider` and :class:`BaselineDecider` implement the same
:class:`Decider` interface, giving the engine interchangeable policies
for the online SMiTe / Random / NoColocation comparison.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.predictor import SMiTe
from repro.core.tail import TailLatencyModel
from repro.errors import ConfigurationError, SchedulingError
from repro.obs import counter
from repro.scheduler.qos import QosMetric, QosTarget, largest_safe_count
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = [
    "AdmissionControl",
    "BaselineDecider",
    "CandidateBatch",
    "CandidateStream",
    "Decider",
    "Decision",
    "DecisionBatch",
    "PredictionService",
    "RandomDecider",
]

#: One placement question: which latency service pool the job was routed
#: to, what it wants to run, and how many sibling contexts exist.
Candidate = tuple[LatencySensitiveWorkload, WorkloadProfile, int]


def _last_touch_order(inv: np.ndarray) -> list[int]:
    """Unique pair indices of ``inv`` in ascending order of last occurrence.

    A key's position after a sequential loop of LRU touches is set by
    its *last* touch, so moving the keys to the end in this order
    reproduces the sequential recency order.
    """
    # First occurrences in the reversed view are the last occurrences;
    # descending reversed position is ascending last position.
    uniq, first_rev = np.unique(inv[::-1], return_index=True)
    return uniq[np.argsort(first_rev)[::-1]].tolist()


def _provably_affordable(total_ms: float, remaining_ms: float) -> bool:
    """Whether one bulk charge of ``total_ms`` can shed no arrival.

    Sequential decisions subtract their costs one at a time, so their
    running budget rounds differently from one product; the margin keeps
    a bulk path from deciding an arrival the sequential loop would shed.
    """
    return total_ms <= remaining_ms - 1e-6


class CandidateBatch(Sequence):
    """One epoch's decision candidates, stored struct-of-arrays.

    Holds integer index columns into small ``apps`` / ``pool`` name
    tables instead of one tuple per arrival. It is also a ``Sequence``
    of plain :data:`Candidate` tuples, so deciders that only implement
    the per-arrival interface consume it unchanged.
    """

    __slots__ = ("apps", "pool", "app_idx", "profile_idx",
                 "max_instances", "pairs")

    def __init__(
        self,
        apps: Sequence[LatencySensitiveWorkload],
        pool: Sequence[WorkloadProfile],
        app_idx: np.ndarray,
        profile_idx: np.ndarray,
        max_instances: int,
        pairs: tuple[np.ndarray, list[tuple[str, str, int]]] | None = None,
    ) -> None:
        self.apps = tuple(apps)
        self.pool = tuple(pool)
        self.app_idx = app_idx
        self.profile_idx = profile_idx
        self.max_instances = max_instances
        #: Optional precomputed unique-pair classification
        #: ``(inv, keys)`` — the engine derives it for a whole run of
        #: epochs in one pass (see :meth:`PredictionService._classify`
        #: for the contract).
        self.pairs = pairs

    @property
    def pair_id(self) -> np.ndarray:
        """Dense code for each candidate's (app, profile) pairing — the
        unit of LRU identity within an epoch (``max_instances`` is
        uniform across a batch). Batches carrying a precomputed
        ``pairs`` classification never need it."""
        return self.app_idx * len(self.pool) + self.profile_idx

    def __len__(self) -> int:
        return int(self.app_idx.size)

    def __getitem__(self, index: int) -> Candidate:
        return (
            self.apps[int(self.app_idx[index])],
            self.pool[int(self.profile_idx[index])],
            self.max_instances,
        )

    def key_for_pair(self, pair_id: int) -> tuple[str, str, int]:
        """The LRU key (app name, profile name, max) for one pair code."""
        return (
            self.apps[pair_id // len(self.pool)].name,
            self.pool[pair_id % len(self.pool)].name,
            self.max_instances,
        )


class CandidateStream:
    """One run of epochs' candidates, epoch-partitioned and columnar.

    The vectorized engine builds one stream per run of epochs: the whole
    trace without adaptation, a single epoch with it. It classifies the
    run's unique (app, profile) pairs per epoch in one numpy pass, then
    decides epoch by epoch on the :class:`CandidateBatch` views that
    :meth:`batch` slices out on demand. ``uid_pair`` holds each epoch's
    unique pair codes back to back (epoch ``e`` owns
    ``uid_pair[uid_offs[e]:uid_offs[e + 1]]``),
    while ``inv`` is epoch-local, matching the ``pairs`` contract of
    :meth:`PredictionService._classify`.
    """

    __slots__ = ("apps", "pool", "app_idx", "profile_idx",
                 "max_instances", "key_table", "epoch_starts",
                 "uid_offs", "uid_pair", "inv")

    def __init__(
        self,
        apps: Sequence[LatencySensitiveWorkload],
        pool: Sequence[WorkloadProfile],
        app_idx: np.ndarray,
        profile_idx: np.ndarray,
        max_instances: int,
        key_table: Sequence[tuple[str, str, int]],
        epoch_starts: list[int],
        uid_offs: list[int],
        uid_pair: list[int],
        inv: np.ndarray,
    ) -> None:
        self.apps = tuple(apps)
        self.pool = tuple(pool)
        self.app_idx = app_idx
        self.profile_idx = profile_idx
        self.max_instances = max_instances
        self.key_table = key_table
        self.epoch_starts = epoch_starts
        self.uid_offs = uid_offs
        self.uid_pair = uid_pair
        self.inv = inv

    def __len__(self) -> int:
        return int(self.app_idx.size)

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_starts) - 1

    def batch(self, epoch: int) -> CandidateBatch:
        """The :class:`CandidateBatch` view of one epoch's arrivals."""
        s0, s1 = self.epoch_starts[epoch], self.epoch_starts[epoch + 1]
        u0, u1 = self.uid_offs[epoch], self.uid_offs[epoch + 1]
        return CandidateBatch(
            self.apps, self.pool,
            self.app_idx[s0:s1], self.profile_idx[s0:s1],
            self.max_instances,
            pairs=(
                self.inv[s0:s1],
                [self.key_table[u] for u in self.uid_pair[u0:u1]],
            ),
        )


@dataclass(frozen=True)
class DecisionBatch:
    """One epoch's decisions, one array per :class:`Decision` field.

    Row ``i`` answers candidate ``i`` of the batch, exactly as a
    sequential loop of :meth:`Decider.decide` calls would have.
    """

    max_safe_instances: np.ndarray
    shed: np.ndarray
    cached: np.ndarray


@dataclass(frozen=True)
class Decision:
    """The service's answer for one arrival.

    ``max_safe_instances`` is the largest batch-instance count the policy
    calls safe for this (latency app, batch profile) pairing; ``shed``
    marks arrivals the admission controller refused to decide (they fall
    back to the no-co-location baseline); ``cached`` records whether the
    answer came from the in-memory LRU.
    """

    max_safe_instances: int
    shed: bool = False
    cached: bool = False


class Decider(ABC):
    """Online placement policy: one :class:`Decision` per arrival.

    The engine calls :meth:`begin_epoch` once per event epoch with the
    epoch's candidates (in arrival order), then :meth:`decide` exactly
    once per arrival, in the same order. Accounting is shared: every
    ``decide`` increments ``serve.service.requests`` and exactly one of
    ``serve.service.decisions`` / ``serve.service.sheds``, so
    ``sheds + decisions == arrivals`` holds for any decider.
    """

    name: str = "decider"

    def begin_epoch(self, candidates: Sequence[Candidate]) -> None:
        """Announce the epoch's decision candidates (micro-batch hook)."""

    def begin_epoch_batch(self, batch: CandidateBatch) -> None:
        """Columnar :meth:`begin_epoch`. Default: the object path.

        ``CandidateBatch`` is itself a sequence of candidates, so
        deciders that only implement :meth:`begin_epoch` keep working;
        vectorizing deciders override this to skip tuple materialization.
        """
        self.begin_epoch(batch)

    def decide_batch(self, batch: CandidateBatch) -> DecisionBatch:
        """Decide one epoch's arrivals in order, columnar in and out.

        Must be decision-for-decision and counter-for-counter equivalent
        to calling :meth:`decide` on each candidate in sequence — the
        vectorized engine relies on that equivalence for byte-identical
        replays. The default implementation *is* that sequential loop.
        """
        n = len(batch)
        counts = np.zeros(n, dtype=np.int64)
        shed = np.zeros(n, dtype=bool)
        cached = np.zeros(n, dtype=bool)
        for i in range(n):
            latency_app, batch_profile, max_instances = batch[i]
            decision = self.decide(latency_app, batch_profile,
                                   max_instances=max_instances)
            counts[i] = decision.max_safe_instances
            shed[i] = decision.shed
            cached[i] = decision.cached
        return DecisionBatch(max_safe_instances=counts, shed=shed,
                             cached=cached)

    def decide_cached(
        self, candidates: Sequence[Candidate]
    ) -> list[Decision] | None:
        """Decide a whole epoch from memory alone, or decline with None.

        A non-None answer must equal :meth:`begin_epoch` followed by one
        :meth:`decide` per candidate, decisions and counters alike. It
        must also be cheap enough to run on an event loop: no simulator
        solve, no disk read. The default declines, so callers take the
        :meth:`begin_epoch` path.
        """
        return None

    def predicted_degradation(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        instances: int,
    ) -> float | None:
        """The degradation this policy predicted for a placement, if any.

        Interference-oblivious policies return None; the engine's
        prediction audit then has nothing to compare, so Random and
        NoColocation replays carry no audit section.
        """
        return None

    def decide(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        *,
        max_instances: int,
    ) -> Decision:
        """Decide one arrival, with shared request/shed/decision counts."""
        counter("serve.service.requests").inc()
        decision = self._decide(latency_app, batch_profile,
                                max_instances=max_instances)
        if decision.shed:
            counter("serve.service.sheds").inc()
        else:
            counter("serve.service.decisions").inc()
        return decision

    @abstractmethod
    def _decide(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        *,
        max_instances: int,
    ) -> Decision:
        """Policy-specific decision (no accounting)."""


class BaselineDecider(Decider):
    """The no-co-location baseline: every sibling context stays idle."""

    name = "baseline"

    def _decide(self, latency_app, batch_profile, *, max_instances):
        return Decision(max_safe_instances=0, cached=True)

    def decide_batch(self, batch: CandidateBatch) -> DecisionBatch:
        """Vectorized: everything goes to the baseline pool."""
        n = len(batch)
        counter("serve.service.requests").inc(n)
        counter("serve.service.decisions").inc(n)
        return DecisionBatch(
            max_safe_instances=np.zeros(n, dtype=np.int64),
            shed=np.zeros(n, dtype=bool),
            cached=np.ones(n, dtype=bool),
        )


class RandomDecider(Decider):
    """Interference-oblivious: a seeded uniform draw over 0..max."""

    name = "random"

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def _decide(self, latency_app, batch_profile, *, max_instances):
        count = int(self._rng.integers(0, max_instances + 1))
        return Decision(max_safe_instances=count, cached=True)

    def decide_batch(self, batch: CandidateBatch) -> DecisionBatch:
        """Vectorized draw; the PCG64 stream is chunk-size invariant, so
        one ``size=n`` call consumes exactly the draws ``n`` sequential
        :meth:`decide` calls would have."""
        n = len(batch)
        counter("serve.service.requests").inc(n)
        counter("serve.service.decisions").inc(n)
        counts = self._rng.integers(
            0, batch.max_instances + 1, size=n,
        ).astype(np.int64)
        return DecisionBatch(
            max_safe_instances=counts,
            shed=np.zeros(n, dtype=bool),
            cached=np.ones(n, dtype=bool),
        )


@dataclass(frozen=True)
class AdmissionControl:
    """Deterministic per-epoch decision-latency budget.

    Costs are *simulated* milliseconds of decision latency, charged
    against ``budget_ms_per_epoch`` in arrival order; they model the
    serving-path cost asymmetry (an LRU hit is ~instant, a miss pays
    characterization solves) without ever reading a wall clock.
    """

    budget_ms_per_epoch: float = 50.0
    hit_cost_ms: float = 0.05
    miss_cost_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.budget_ms_per_epoch <= 0.0:
            raise ConfigurationError("admission budget must be positive")
        if not 0.0 <= self.hit_cost_ms <= self.miss_cost_ms:
            raise ConfigurationError(
                "admission costs need 0 <= hit_cost_ms <= miss_cost_ms"
            )


class PredictionService(Decider):
    """SMiTe behind an LRU, micro-batched prefetch, and admission control."""

    name = "smite"

    def __init__(
        self,
        predictor: SMiTe,
        target: QosTarget,
        *,
        tail_models: dict[str, TailLatencyModel] | None = None,
        admission: AdmissionControl | None = None,
        lru_capacity: int = 512,
    ) -> None:
        if not predictor.model.is_fitted:
            raise SchedulingError("PredictionService needs a fitted predictor")
        if lru_capacity < 1:
            raise ConfigurationError(
                f"LRU capacity must be >= 1, got {lru_capacity}"
            )
        if (target.metric is QosMetric.TAIL_LATENCY and not tail_models):
            raise SchedulingError(
                "tail-latency QoS targets need per-app tail models"
            )
        self.predictor = predictor
        self.target = target
        self.admission = admission if admission is not None else AdmissionControl()
        self._tail_models = dict(tail_models) if tail_models else {}
        self._lru: OrderedDict[tuple[str, str, int], int] = OrderedDict()
        self._lru_capacity = lru_capacity
        # Unbounded memo of predict_server results, keyed (app, batch,
        # instances). The key space is the LRU key space's closure over
        # instance counts — a few hundred entries on a warm day — and the
        # prediction audit reads it long after an LRU entry may have
        # been evicted.
        self._predicted: dict[tuple[str, str, int], float] = {}
        self._epoch_remaining_ms = self.admission.budget_ms_per_epoch
        # Hot-swappable coefficient override (repro.adapt): any object
        # duck-typing SMiTe.predict_server. None serves the static
        # offline-trained predictor.
        self._override = None
        #: Monotone version of the serving coefficients; 0 = the static
        #: model the service was constructed with.
        self.model_version = 0
        self.model_hash: str | None = None
        #: Simulated time of the last hot-swap (None before any swap).
        self.last_swap_epoch_s: float | None = None

    # ------------------------------------------------------------------

    @property
    def cache_len(self) -> int:
        """Number of decisions currently held in the LRU."""
        return len(self._lru)

    @property
    def model_override(self):
        """The live coefficient override, or None when serving static."""
        return self._override

    def set_model_override(
        self,
        override,
        *,
        version: int,
        model_hash: str | None = None,
        epoch_s: float | None = None,
    ) -> int:
        """Atomically swap the serving coefficients (hot-swap entry point).

        ``override`` is any object duck-typing ``SMiTe.predict_server``
        (see :class:`repro.adapt.swap.AdaptedModel`), or None to shed
        back to the static predictor. Invalidates exactly the
        prediction-derived caches — the decision LRU and the prediction
        memo — and returns how many entries that dropped. Ground-truth
        stores (the simulator memo, ``smt.diskcache``) hold measured
        degradations independent of regression coefficients, so a swap
        leaves them untouched.
        """
        invalidated = len(self._lru) + len(self._predicted)
        self._override = override
        self.model_version = version
        self.model_hash = model_hash
        self.last_swap_epoch_s = epoch_s
        self._lru.clear()
        self._predicted.clear()
        counter("serve.adapt.invalidations").inc(invalidated)
        return invalidated

    def _key(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        max_instances: int,
    ) -> tuple[str, str, int]:
        return (latency_app.name, batch_profile.name, max_instances)

    def _tail_model(
        self, latency_app: LatencySensitiveWorkload
    ) -> TailLatencyModel | None:
        if self.target.metric is not QosMetric.TAIL_LATENCY:
            return None
        model = self._tail_models.get(latency_app.name)
        if model is None:
            raise SchedulingError(f"no tail model for {latency_app.name}")
        return model

    # ------------------------------------------------------------------

    def begin_epoch(self, candidates: Sequence[Candidate]) -> None:
        """Reset the epoch budget and prefetch the affordable misses.

        Walks the candidates in arrival order, charging the same
        deterministic cost model :meth:`decide` will charge; every miss
        that fits the budget has its simulator solves (batch Ruler
        co-runs, per-count server characterizations) pushed through one
        batched :meth:`Simulator.prefetch_readings` before any decision
        runs.
        """
        self._epoch_remaining_ms = self.admission.budget_ms_per_epoch
        planned = self._epoch_remaining_ms
        affordable_misses: list[Candidate] = []
        seen_this_epoch: dict[tuple[str, str, int], None] = {}
        for latency_app, batch_profile, max_instances in candidates:
            key = self._key(latency_app, batch_profile, max_instances)
            is_hit = key in self._lru or key in seen_this_epoch
            cost = (self.admission.hit_cost_ms if is_hit
                    else self.admission.miss_cost_ms)
            if planned < cost:
                break
            planned -= cost
            if not is_hit:
                seen_this_epoch[key] = None
                affordable_misses.append(
                    (latency_app, batch_profile, max_instances)
                )
        if affordable_misses:
            self._prefetch(affordable_misses)

    def _classify(
        self, batch: CandidateBatch
    ) -> tuple[np.ndarray, list[tuple[str, str, int]]]:
        """Unique-pair view of one epoch's batch.

        Returns ``(inv, keys)``: each position's index into the epoch's
        unique pairs, and each unique pair's LRU key. The order of the
        unique pairs is an implementation detail no output depends on —
        decisions,
        counters, and the final LRU order are all functions of the
        per-position view. Batches carrying a precomputed ``pairs``
        classification (the engine derives it for all epochs in one
        numpy pass) short-circuit.
        """
        if batch.pairs is not None:
            return batch.pairs
        index: dict[int, int] = {}
        inv: list[int] = []
        for u in batch.pair_id.tolist():
            inv.append(index.setdefault(u, len(index)))
        keys = [batch.key_for_pair(u) for u in index]
        return np.array(inv, dtype=np.intp), keys

    def begin_epoch_batch(self, batch: CandidateBatch) -> None:
        """Columnar :meth:`begin_epoch`: reset the budget, prefetch misses.

        In the steady state every unique pair of the epoch is already in
        the LRU, so there is nothing to prefetch and the budget reset is
        all that happens. Epochs that do carry misses replay the exact
        object path, which charges the same arrival-ordered cost model
        as :meth:`decide` to find the affordable prefix.
        """
        self._epoch_remaining_ms = self.admission.budget_ms_per_epoch
        if len(batch) == 0:
            return
        _inv, keys = self._classify(batch)
        lru = self._lru
        if all(k in lru for k in keys):
            return
        self.begin_epoch(batch)

    def _prefetch(self, misses: Iterable[Candidate]) -> None:
        """Batch every solve the epoch's affordable misses will need.

        The predictor skips whatever it has already characterized or
        warmed, so a question asked again costs a few set lookups.
        """
        by_max: dict[int, list[Candidate]] = {}
        for miss in misses:
            by_max.setdefault(miss[2], []).append(miss)
        for max_instances, group in by_max.items():
            self.predictor.prefetch_server(
                [app.profile for app, _batch, _max in group],
                [batch for _app, batch, _max in group],
                instance_counts=range(1, max_instances + 1),
            )

    # ------------------------------------------------------------------

    def _decide(self, latency_app, batch_profile, *, max_instances):
        key = self._key(latency_app, batch_profile, max_instances)
        cached_count = self._lru.get(key)
        cost = (self.admission.hit_cost_ms if cached_count is not None
                else self.admission.miss_cost_ms)
        if self._epoch_remaining_ms < cost:
            return Decision(max_safe_instances=0, shed=True,
                            cached=cached_count is not None)
        self._epoch_remaining_ms -= cost
        if cached_count is not None:
            counter("serve.service.cache_hits").inc()
            self._lru.move_to_end(key)
            return Decision(max_safe_instances=cached_count, cached=True)
        counter("serve.service.cache_misses").inc()
        count = self._predict_safe_count(latency_app, batch_profile,
                                         max_instances)
        self._lru[key] = count
        if len(self._lru) > self._lru_capacity:
            self._lru.popitem(last=False)
        return Decision(max_safe_instances=count, cached=False)

    # ------------------------------------------------------------------

    def decide_batch(self, batch: CandidateBatch) -> DecisionBatch:
        """One epoch's decisions, equivalent to sequential :meth:`decide`.

        The steady-state epoch — every unique pair already in the LRU
        and the whole batch provably affordable (with a float-safety
        margin) — is decided in bulk from per-pair dictionary state.
        Every other epoch (a miss, or a budget that may run out) takes
        the inherited per-arrival loop over :meth:`decide`, the exact
        cost model.
        """
        n = len(batch)
        if n:
            inv, keys = self._classify(batch)
            lru = self._lru
            uid_counts = [lru.get(k) for k in keys]
            total_ms = n * self.admission.hit_cost_ms
            if (None not in uid_counts
                    and _provably_affordable(total_ms,
                                             self._epoch_remaining_ms)):
                self._charge_hits(
                    n, [keys[j] for j in _last_touch_order(inv)], total_ms,
                )
                return DecisionBatch(
                    max_safe_instances=np.asarray(
                        uid_counts, dtype=np.int64)[inv],
                    shed=np.zeros(n, dtype=bool),
                    cached=np.ones(n, dtype=bool),
                )
        return super().decide_batch(batch)

    def decide_cached(
        self, candidates: Sequence[Candidate]
    ) -> list[Decision] | None:
        """An all-hit epoch decided from the LRU alone; None otherwise.

        Declines without touching any state when a candidate misses the
        LRU or the epoch is not provably affordable under a fresh budget
        (the test :meth:`decide_batch` applies before its all-hit path).
        Otherwise it resets and charges the budget, refreshes LRU recency
        and counts requests, decisions and hits exactly as
        :meth:`begin_epoch` plus sequential :meth:`decide` would.
        """
        lru = self._lru
        counts: list[int] = []
        # Re-inserting a key on every touch leaves the dict in order of
        # last touch, the order the LRU must replay.
        last_touched: dict[tuple[str, str, int], None] = {}
        for latency_app, batch_profile, max_instances in candidates:
            key = self._key(latency_app, batch_profile, max_instances)
            count = lru.get(key)
            if count is None:
                return None
            counts.append(count)
            last_touched.pop(key, None)
            last_touched[key] = None
        n = len(counts)
        total_ms = n * self.admission.hit_cost_ms
        budget_ms = self.admission.budget_ms_per_epoch
        if not _provably_affordable(total_ms, budget_ms):
            return None
        self._epoch_remaining_ms = budget_ms
        self._charge_hits(n, last_touched, total_ms)
        return [Decision(max_safe_instances=count, cached=True)
                for count in counts]

    def decide_stream(
        self, stream: CandidateStream
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide a whole replay epoch by epoch; returns (counts, shed).

        The engine does not call this: ``benchmarks/e2e/layers.py`` wraps
        it by name, so it stays until the benchmark drops that target.
        """
        counts = np.zeros(len(stream), dtype=np.int64)
        shed = np.zeros(len(stream), dtype=bool)
        starts = stream.epoch_starts
        for e in range(stream.n_epochs):
            batch = stream.batch(e)
            self.begin_epoch_batch(batch)
            decisions = self.decide_batch(batch)
            counts[starts[e]:starts[e + 1]] = decisions.max_safe_instances
            shed[starts[e]:starts[e + 1]] = decisions.shed
        return counts, shed

    def _charge_hits(
        self,
        n: int,
        last_touched: Iterable[tuple[str, str, int]],
        total_ms: float,
    ) -> None:
        """Account an affordable all-hit epoch of ``n`` arrivals.

        ``last_touched`` holds the epoch's distinct keys in ascending
        order of last touch; moving them to the LRU's end in that order
        leaves the recency a sequential :meth:`decide` loop would.
        """
        counter("serve.service.requests").inc(n)
        counter("serve.service.decisions").inc(n)
        counter("serve.service.cache_hits").inc(n)
        lru = self._lru
        for key in last_touched:
            lru.move_to_end(key)
        self._epoch_remaining_ms -= total_ms

    def _predict_safe_count(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        max_instances: int,
    ) -> int:
        """Largest instance count predicted inside the degradation budget."""
        budget = self.target.degradation_budget(self._tail_model(latency_app))
        return largest_safe_count(
            lambda k: self._predict_degradation(latency_app, batch_profile,
                                                k),
            budget, max_instances,
        )[0]

    def _predict_degradation(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        instances: int,
    ) -> float:
        key = (latency_app.name, batch_profile.name, instances)
        predicted = self._predicted.get(key)
        if predicted is None:
            model = (self._override if self._override is not None
                     else self.predictor)
            predicted = model.predict_server(
                latency_app.profile, batch_profile, instances=instances,
            )
            self._predicted[key] = predicted
        return predicted

    def predicted_degradation(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        instances: int,
    ) -> float | None:
        """SMiTe's predicted degradation for one concrete placement.

        Served from the prediction memo when the safe-count search
        already evaluated this count; otherwise one model evaluation
        (the underlying solves were prefetched with the epoch's misses).
        """
        if instances < 1:
            return None
        return self._predict_degradation(latency_app, batch_profile,
                                         instances)
