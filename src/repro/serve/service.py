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
   characterizations) is pushed through :meth:`Simulator.prefetch` as one
   batched fixed point;
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
from repro.scheduler.qos import QosMetric, QosTarget
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


class CandidateBatch(Sequence):
    """One epoch's decision candidates, stored struct-of-arrays.

    Holds integer index columns into small ``apps`` / ``pool`` name
    tables instead of one tuple per arrival. It is also a ``Sequence``
    of plain :data:`Candidate` tuples, so deciders that only implement
    the per-arrival interface consume it unchanged.
    """

    __slots__ = ("apps", "pool", "app_idx", "profile_idx",
                 "max_instances", "_pair_id", "key_table", "pairs")

    def __init__(
        self,
        apps: Sequence[LatencySensitiveWorkload],
        pool: Sequence[WorkloadProfile],
        app_idx: np.ndarray,
        profile_idx: np.ndarray,
        max_instances: int,
        key_table: Sequence[tuple[str, str, int]] | None = None,
        pairs: tuple[
            list[int], np.ndarray, list[int], list[tuple[str, str, int]]
        ] | None = None,
    ) -> None:
        self.apps = tuple(apps)
        self.pool = tuple(pool)
        self.app_idx = app_idx
        self.profile_idx = profile_idx
        self.max_instances = max_instances
        self._pair_id: np.ndarray | None = None
        #: Optional pre-built ``pair_id -> LRU key`` row-major table,
        #: shared across the epochs of one replay so per-epoch batches
        #: stop rebuilding identical key tuples.
        self.key_table = key_table
        #: Optional precomputed unique-pair classification
        #: ``(uids, inv, firsts, keys)`` — the vectorized engine derives
        #: it for all epochs in one pass (see
        #: :meth:`PredictionService._classify` for the contract).
        self.pairs = pairs

    @property
    def pair_id(self) -> np.ndarray:
        """Dense code for each candidate's (app, profile) pairing — the
        unit of LRU identity within an epoch (``max_instances`` is
        uniform across a batch). Computed lazily: batches carrying a
        precomputed ``pairs`` classification never need it."""
        pair_id = self._pair_id
        if pair_id is None:
            pair_id = self.app_idx * len(self.pool) + self.profile_idx
            self._pair_id = pair_id
        return pair_id

    def __len__(self) -> int:
        return int(self.app_idx.size)

    def __getitem__(self, index: int) -> Candidate:
        return (
            self.apps[int(self.app_idx[index])],
            self.pool[int(self.profile_idx[index])],
            self.max_instances,
        )

    def candidate_for_pair(self, pair_id: int) -> Candidate:
        """The :data:`Candidate` tuple behind one dense pair code."""
        return (
            self.apps[pair_id // len(self.pool)],
            self.pool[pair_id % len(self.pool)],
            self.max_instances,
        )

    def key_for_pair(self, pair_id: int) -> tuple[str, str, int]:
        """The LRU key (app name, profile name, max) for one pair code."""
        if self.key_table is not None:
            return self.key_table[pair_id]
        return (
            self.apps[pair_id // len(self.pool)].name,
            self.pool[pair_id % len(self.pool)].name,
            self.max_instances,
        )


class CandidateStream:
    """A whole replay's candidates, epoch-partitioned and columnar.

    The vectorized engine classifies every epoch's unique (app, profile)
    pairs in one numpy pass up front, then decides epoch by epoch on the
    :class:`CandidateBatch` views that :meth:`batch` slices out on
    demand. ``uid_pair`` holds each epoch's unique pair codes back to
    back (epoch ``e`` owns ``uid_pair[uid_offs[e]:uid_offs[e + 1]]``),
    while ``inv`` and ``firsts`` are epoch-local, matching the ``pairs``
    contract of :meth:`PredictionService._classify`.
    """

    __slots__ = ("apps", "pool", "app_idx", "profile_idx", "pair_id",
                 "max_instances", "key_table", "epoch_starts",
                 "uid_offs", "uid_pair", "inv", "firsts")

    def __init__(
        self,
        apps: Sequence[LatencySensitiveWorkload],
        pool: Sequence[WorkloadProfile],
        app_idx: np.ndarray,
        profile_idx: np.ndarray,
        pair_id: np.ndarray,
        max_instances: int,
        key_table: Sequence[tuple[str, str, int]],
        epoch_starts: list[int],
        uid_offs: list[int],
        uid_pair: list[int],
        inv: np.ndarray,
        firsts: list[int],
    ) -> None:
        self.apps = tuple(apps)
        self.pool = tuple(pool)
        self.app_idx = app_idx
        self.profile_idx = profile_idx
        self.pair_id = pair_id
        self.max_instances = max_instances
        self.key_table = key_table
        self.epoch_starts = epoch_starts
        self.uid_offs = uid_offs
        self.uid_pair = uid_pair
        self.inv = inv
        self.firsts = firsts

    def __len__(self) -> int:
        return int(self.app_idx.size)

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_starts) - 1

    def batch(self, epoch: int) -> CandidateBatch:
        """The :class:`CandidateBatch` view of one epoch's arrivals."""
        s0, s1 = self.epoch_starts[epoch], self.epoch_starts[epoch + 1]
        u0, u1 = self.uid_offs[epoch], self.uid_offs[epoch + 1]
        uids = self.uid_pair[u0:u1]
        return CandidateBatch(
            self.apps, self.pool,
            self.app_idx[s0:s1], self.profile_idx[s0:s1],
            self.max_instances, key_table=self.key_table,
            pairs=(
                uids, self.inv[s0:s1], self.firsts[u0:u1],
                [self.key_table[u] for u in uids],
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
        # Per-epoch unique-pair classification memo (see _classify) and
        # the LRU-count walk begin_epoch_batch shares with decide_batch.
        self._epoch_batch: CandidateBatch | None = None
        self._epoch_class: tuple[
            list[int], np.ndarray, list[int], list[tuple[str, str, int]]
        ] | None = None
        self._epoch_counts_batch: CandidateBatch | None = None
        self._epoch_counts: list[int | None] = []
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
        # Any in-flight epoch memo of LRU counts is stale now; swaps
        # land on epoch boundaries, but drop it defensively regardless.
        self._epoch_counts_batch = None
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
        batched :meth:`Simulator.prefetch` before any decision runs.
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
    ) -> tuple[list[int], np.ndarray, list[int], list[tuple[str, str, int]]]:
        """Unique-pair view of one epoch's batch, shared across methods.

        Returns ``(uids, inv, firsts, keys)``: the unique pair codes,
        the per-position index array into them, each unique pair's first
        position, and each pair's LRU key. The order of the unique pairs
        is an implementation detail no output depends on — decisions,
        counters, and the final LRU order are all functions of the
        per-position view. Batches carrying a precomputed ``pairs``
        classification (the vectorized engine derives it for all epochs
        in one numpy pass) short-circuit; otherwise the result is
        memoized per batch object, so :meth:`begin_epoch_batch` and
        :meth:`decide_batch` compute it once between them.
        """
        if batch.pairs is not None:
            return batch.pairs
        if self._epoch_batch is batch:
            return self._epoch_class
        index: dict[int, int] = {}
        uids: list[int] = []
        inv: list[int] = []
        firsts: list[int] = []
        for i, u in enumerate(batch.pair_id.tolist()):
            j = index.get(u)
            if j is None:
                j = len(uids)
                index[u] = j
                uids.append(u)
                firsts.append(i)
            inv.append(j)
        keys = [batch.key_for_pair(u) for u in uids]
        self._epoch_batch = batch
        self._epoch_class = (uids, np.array(inv, dtype=np.intp), firsts, keys)
        return self._epoch_class

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
        _uids, _inv, _firsts, keys = self._classify(batch)
        lru = self._lru
        uid_counts = [lru.get(k) for k in keys]
        # Prefetching never touches the LRU, so the walk stays valid for
        # this batch's decide_batch call.
        self._epoch_counts_batch = batch
        self._epoch_counts = uid_counts
        if None not in uid_counts:
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

        Dispatches on the epoch's shape. The common steady-state epoch —
        every unique pair already in the LRU and the whole batch provably
        affordable (with a float-safety margin) — touches only per-pair
        dictionary state. Epochs with affordable misses and no possible
        eviction run a per-unique-pair fast path. Everything else replays
        the per-arrival cost model exactly, including the all-shed tail
        once the budget can no longer cover even a cache hit.
        """
        n = len(batch)
        if n == 0:
            return DecisionBatch(
                max_safe_instances=np.zeros(0, dtype=np.int64),
                shed=np.zeros(0, dtype=bool),
                cached=np.zeros(0, dtype=bool),
            )
        admission = self.admission
        uids, inv, firsts, keys = self._classify(batch)
        lru = self._lru
        if self._epoch_counts_batch is batch:
            uid_counts: list[int | None] = list(self._epoch_counts)
            self._epoch_counts_batch = None  # decisions mutate the LRU
        else:
            uid_counts = [lru.get(k) for k in keys]
        # Misses are exactly the first occurrences of uncached pairs.
        n_miss = sum(1 for c in uid_counts if c is None)
        total_ms = (n_miss * admission.miss_cost_ms
                    + (n - n_miss) * admission.hit_cost_ms)
        if total_ms <= self._epoch_remaining_ms - 1e-6:
            if n_miss == 0:
                return self._decide_batch_hits(
                    n, inv, keys, uid_counts, total_ms,
                )
            if len(lru) + n_miss <= self._lru_capacity:
                return self._decide_batch_fast(
                    batch, uids, inv, firsts, keys, uid_counts, total_ms,
                )
        return self._decide_batch_sequential(batch, inv, keys)

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

    def _decide_batch_hits(
        self,
        n: int,
        inv: np.ndarray,
        keys: list[tuple[str, str, int]],
        uid_counts: list[int],
        total_ms: float,
    ) -> DecisionBatch:
        """All-hit affordable epoch: dictionary reads plus LRU recency."""
        counter("serve.service.requests").inc(n)
        counter("serve.service.decisions").inc(n)
        counter("serve.service.cache_hits").inc(n)
        lru = self._lru
        for j in _last_touch_order(inv):
            lru.move_to_end(keys[j])
        self._epoch_remaining_ms -= total_ms
        return DecisionBatch(
            max_safe_instances=np.asarray(uid_counts, dtype=np.int64)[inv],
            shed=np.zeros(n, dtype=bool),
            cached=np.ones(n, dtype=bool),
        )

    def _decide_batch_fast(
        self,
        batch: CandidateBatch,
        uids: list[int],
        inv: np.ndarray,
        firsts: list[int],
        keys: list[tuple[str, str, int]],
        uid_counts: list[int | None],
        total_ms: float,
    ) -> DecisionBatch:
        """Affordable misses, no eviction possible: per-unique-pair work."""
        n = len(inv)
        miss_js = [j for j, c in enumerate(uid_counts) if c is None]
        n_miss = len(miss_js)
        counter("serve.service.requests").inc(n)
        counter("serve.service.decisions").inc(n)
        if n > n_miss:
            counter("serve.service.cache_hits").inc(n - n_miss)
        if n_miss:
            counter("serve.service.cache_misses").inc(n_miss)
        for j in miss_js:
            latency_app, batch_profile, max_instances = \
                batch.candidate_for_pair(uids[j])
            uid_counts[j] = self._predict_safe_count(
                latency_app, batch_profile, max_instances,
            )
        # A missing pair inserts (at its would-be last touch), a cached
        # pair moves.
        was_miss = [False] * len(uids)
        for j in miss_js:
            was_miss[j] = True
        lru = self._lru
        for j in _last_touch_order(inv):
            if was_miss[j]:
                lru[keys[j]] = uid_counts[j]
            else:
                lru.move_to_end(keys[j])
        self._epoch_remaining_ms -= total_ms
        cached = np.ones(n, dtype=bool)
        cached[[firsts[j] for j in miss_js]] = False
        return DecisionBatch(
            max_safe_instances=np.asarray(uid_counts, dtype=np.int64)[inv],
            shed=np.zeros(n, dtype=bool),
            cached=cached,
        )

    def _decide_batch_sequential(
        self,
        batch: CandidateBatch,
        inv: np.ndarray,
        keys: list[tuple[str, str, int]],
    ) -> DecisionBatch:
        """Exact per-arrival replay of the admission cost model.

        Bit-identical to calling :meth:`_decide` in a loop — same float
        subtraction order, same shed/charge rules — but once the budget
        drops below even a hit's cost every later arrival must shed and
        the LRU stops changing, so the tail is filled in bulk.
        """
        inv = inv.tolist()
        n = len(inv)
        admission = self.admission
        hit_cost, miss_cost = admission.hit_cost_ms, admission.miss_cost_ms
        lru = self._lru
        counts = np.zeros(n, dtype=np.int64)
        shed = np.zeros(n, dtype=bool)
        cached = np.zeros(n, dtype=bool)
        hits = misses = sheds = 0
        remaining = self._epoch_remaining_ms
        i = 0
        while i < n:
            if remaining < hit_cost:
                break  # every remaining arrival sheds, LRU frozen
            key = keys[inv[i]]
            cached_count = lru.get(key)
            if cached_count is not None:
                remaining -= hit_cost
                hits += 1
                lru.move_to_end(key)
                counts[i] = cached_count
                cached[i] = True
            elif remaining < miss_cost:
                sheds += 1
                shed[i] = True
            else:
                remaining -= miss_cost
                misses += 1
                latency_app, batch_profile, max_instances = batch[i]
                count = self._predict_safe_count(
                    latency_app, batch_profile, max_instances,
                )
                lru[key] = count
                if len(lru) > self._lru_capacity:
                    lru.popitem(last=False)
                counts[i] = count
            i += 1
        if i < n:
            sheds += n - i
            shed[i:] = True
            in_lru = [k in lru for k in keys]
            cached[i:] = [in_lru[j] for j in inv[i:]]
        self._epoch_remaining_ms = remaining
        counter("serve.service.requests").inc(n)
        counter("serve.service.decisions").inc(n - sheds)
        if sheds:
            counter("serve.service.sheds").inc(sheds)
        if hits:
            counter("serve.service.cache_hits").inc(hits)
        if misses:
            counter("serve.service.cache_misses").inc(misses)
        return DecisionBatch(max_safe_instances=counts, shed=shed,
                             cached=cached)

    def _predict_safe_count(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        max_instances: int,
    ) -> int:
        """Largest instance count predicted inside the degradation budget."""
        budget = self.target.degradation_budget(self._tail_model(latency_app))
        for instances in range(max_instances, 0, -1):
            predicted = self._predict_degradation(latency_app, batch_profile,
                                                  instances)
            if predicted <= budget:
                return instances
        return 0

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
