"""The catalog of every metric and span the codebase emits.

Instrumentation sites must use names declared here; the catalog is the
single source of truth that ``docs/OBSERVABILITY.md`` documents and that
``tests/obs/test_catalog.py`` verifies in both directions:

- every name in the docs table exists in this catalog (and vice versa);
- every metric a live pipeline run emits matches a catalog entry.

Dynamic name parts are written as ``{placeholder}`` patterns
(``experiment.{id}`` matches ``experiment.fig10``). Span entries name
span *leaves*: recorded span paths are slash-joined nesting stacks
(``experiment.fig14/cluster.apply_policy``), and each segment of a path
must match a span leaf in the catalog. The ``{span_path}`` placeholder
is special: it additionally matches ``/``, so names derived from full
span paths (the ``<path>.errors`` failure counters) stay cataloged.

Besides the four metric kinds there are two more: ``trace``, the names
of structured trace markers and counter samples (:mod:`repro.obs.trace`)
that are not themselves registry metrics, and ``alert``, the declarative
alert rule names (:mod:`repro.obs.alerts`) whose firing state the
telemetry pipeline exports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["CATALOG", "MetricSpec", "find_spec", "match_span_path",
           "specs_of_kind"]


@dataclass(frozen=True)
class MetricSpec:
    """One documented metric: its kind, name pattern, unit, and meaning."""

    kind: str  # "counter"|"gauge"|"histogram"|"span"|"trace"|"alert"
    name: str  # exact name, or a pattern with {placeholder} segments
    unit: str
    description: str

    @property
    def pattern(self) -> "re.Pattern[str]":
        return _compile(self.name)


@lru_cache(maxsize=None)
def _compile(name: str) -> "re.Pattern[str]":
    def _wildcard(match: "re.Match[str]") -> str:
        # {span_path} spans nesting separators; other placeholders are
        # single path segments.
        if match.group(0) == "{span_path}":
            return "[A-Za-z0-9_./-]+"
        return "[A-Za-z0-9_.-]+"

    out: list[str] = []
    last = 0
    for match in re.finditer(r"\{[a-z_]+\}", name):
        out.append(re.escape(name[last:match.start()]))
        out.append(_wildcard(match))
        last = match.end()
    out.append(re.escape(name[last:]))
    return re.compile("^" + "".join(out) + "$")


CATALOG: tuple[MetricSpec, ...] = (
    # -- persistent solve cache (smt/diskcache.py) ----------------------
    MetricSpec("counter", "smt.diskcache.requests", "probes",
               "disk-cache lookups; equals hits + misses by construction"),
    MetricSpec("counter", "smt.diskcache.hits", "probes",
               "lookups served from a loaded segment"),
    MetricSpec("counter", "smt.diskcache.misses", "probes",
               "lookups that found no (usable) entry"),
    MetricSpec("counter", "smt.diskcache.invalidations", "segments",
               "corrupt segments deleted when read; their keys recompute"),
    MetricSpec("counter", "smt.diskcache.writes", "entries",
               "solve results persisted, one segment per solved batch"),
    MetricSpec("counter", "smt.diskcache.bytes_read", "bytes",
               "segment bytes read: key lists, and results loaded"),
    MetricSpec("counter", "smt.diskcache.bytes_written", "bytes",
               "segment bytes written"),
    # -- simulator facade (smt/simulator.py) ----------------------------
    MetricSpec("counter", "smt.simulator.requests", "placements",
               "placement reads of the solve memo (run / run_many / "
               "prefetch; a memoized or already warmed reading makes "
               "none); each canonicalizes its placement once"),
    MetricSpec("counter", "smt.simulator.memo_hits", "placements",
               "requests served from the in-memory memo cache"),
    MetricSpec("counter", "smt.simulator.run_solves", "placements",
               "run or measurement misses nothing prefetched, solved as "
               "a batch of one"),
    # -- fixed-point solvers (smt/solver.py, smt/batch.py) --------------
    MetricSpec("counter", "smt.solver.solves", "solves",
               "scalar fixed-point solves executed"),
    MetricSpec("histogram", "smt.solver.iterations", "iterations",
               "fixed-point iterations per scalar solve"),
    MetricSpec("histogram", "smt.solver.solve_seconds", "seconds",
               "wall time per scalar solve"),
    MetricSpec("counter", "smt.batch.calls", "calls",
               "vectorized solve_many invocations"),
    MetricSpec("counter", "smt.batch.problems", "problems",
               "independent problems stacked across all batch calls"),
    MetricSpec("counter", "smt.batch.updates", "updates",
               "wave updates, one per within-core rank per iteration"),
    MetricSpec("histogram", "smt.batch.batch_size", "problems",
               "problems per solve_many call"),
    MetricSpec("histogram", "smt.batch.solve_seconds", "seconds",
               "wall time per solve_many call"),
    # -- characterization and training (core/) --------------------------
    MetricSpec("counter", "core.characterize.workloads", "workloads",
               "workloads characterized against the Ruler suite"),
    MetricSpec("counter", "core.trainer.pair_samples", "samples",
               "ordered co-location pairs measured for datasets"),
    MetricSpec("counter", "core.trainer.server_samples", "samples",
               "server-topology co-locations measured for datasets"),
    # -- cluster scheduler (scheduler/cluster.py) ------------------------
    MetricSpec("counter", "scheduler.cluster.decisions", "servers",
               "placement decisions evaluated by a policy pass"),
    MetricSpec("counter", "scheduler.cluster.colocations", "servers",
               "decisions that admitted at least one batch instance"),
    MetricSpec("counter", "scheduler.cluster.instances", "instances",
               "batch instances admitted across the cluster"),
    MetricSpec("counter", "scheduler.cluster.qos_violations", "servers",
               "admitted co-locations whose measured outcome broke the "
               "QoS target (mispredicted-safe placements)"),
    # -- tail-model fitting (scheduler/scaleout.py) ----------------------
    MetricSpec("counter", "scheduler.tail.unstable_skips", "points",
               "Ruler sweep points skipped during tail-model fitting "
               "because the degraded queue would be unstable"),
    # -- online serving runtime (serve/) ---------------------------------
    MetricSpec("counter", "serve.traffic.jobs", "jobs",
               "batch jobs emitted by the trace generators"),
    MetricSpec("counter", "serve.engine.arrivals", "jobs",
               "trace arrivals processed by the serving engine"),
    MetricSpec("counter", "serve.engine.departures", "jobs",
               "job departures processed (contexts freed)"),
    MetricSpec("counter", "serve.engine.colocated", "jobs",
               "arrivals placed on a latency server's SMT contexts"),
    MetricSpec("counter", "serve.engine.baseline_placed", "jobs",
               "arrivals sent to the no-co-location baseline pool "
               "(shed, predicted-unsafe, or no free contexts)"),
    MetricSpec("counter", "serve.engine.epochs", "epochs",
               "event epochs replayed (one micro-batched decider pass each)"),
    MetricSpec("counter", "serve.engine.events", "events",
               "discrete events processed (arrivals + departures)"),
    MetricSpec("counter", "serve.engine.sheds", "jobs",
               "arrivals answered with a shed decision (telemetry frame "
               "channel; cumulative per epoch boundary)"),
    MetricSpec("gauge", "serve.engine.running", "jobs",
               "jobs resident in the fleet at the last epoch boundary"),
    MetricSpec("counter", "serve.service.requests", "decisions",
               "placement questions put to the decider; equals "
               "sheds + decisions by construction"),
    MetricSpec("counter", "serve.service.decisions", "decisions",
               "arrivals the admission controller let through to a "
               "placement decision"),
    MetricSpec("counter", "serve.service.sheds", "decisions",
               "arrivals shed to the baseline when the per-epoch "
               "decision-latency budget ran out"),
    MetricSpec("counter", "serve.service.cache_hits", "decisions",
               "decisions served from the in-memory prediction LRU"),
    MetricSpec("counter", "serve.service.cache_misses", "decisions",
               "decisions that had to consult the SMiTe predictor"),
    MetricSpec("counter", "serve.shard.workers", "processes",
               "worker processes the sharded placement phase fanned "
               "pools out to"),
    MetricSpec("counter", "serve.shard.events", "events",
               "pool-local placement events replayed by the placement "
               "kernels, in-process or in shard workers (interesting "
               "events only)"),
    MetricSpec("counter", "serve.shard.stale_pops", "entries",
               "lazily invalidated placement-heap entries the kernels "
               "popped and discarded (wasted search work)"),
    MetricSpec("counter", "serve.slo.windows", "windows",
               "SLO accounting windows closed over the event clock"),
    MetricSpec("gauge", "serve.slo.violation_rate", "fraction",
               "QoS-violation rate of the most recently closed window"),
    # -- network-facing prediction API (serve/api/) ----------------------
    MetricSpec("counter", "serve.api.connections", "connections",
               "client connections accepted by the API server"),
    MetricSpec("counter", "serve.api.requests", "requests",
               "valid protocol requests answered (every op, shed "
               "responses included)"),
    MetricSpec("counter", "serve.api.protocol_errors", "requests",
               "frames or requests rejected with a protocol error "
               "(bad framing, schema violations, version mismatches)"),
    MetricSpec("counter", "serve.api.batches", "batches",
               "decision micro-batches drained from the pending queue"),
    MetricSpec("counter", "serve.api.loop_batches", "batches",
               "micro-batches decided on the event loop from the LRU "
               "alone; batches minus loop_batches is the executor hops"),
    MetricSpec("counter", "serve.api.sheds", "requests",
               "requests answered with the 429-style overloaded "
               "shed-to-baseline response because the queue bound was hit"),
    MetricSpec("counter", "serve.api.shard_workers", "processes",
               "worker processes the sharded API service fanned out to"),
    MetricSpec("gauge", "serve.api.queue_depth", "requests",
               "pending decision requests observed at the last "
               "batch-drain boundary"),
    MetricSpec("histogram", "serve.api.batch_occupancy", "requests",
               "requests coalesced into each decision micro-batch"),
    # -- prediction-accuracy audit (obs/audit.py, fed by serve/engine.py)
    MetricSpec("counter", "serve.audit.samples", "comparisons",
               "predicted-vs-realized degradation comparisons recorded "
               "at fleet refreshes"),
    MetricSpec("histogram", "serve.audit.abs_residual", "fraction",
               "absolute prediction residual |predicted - actual| per "
               "audited comparison"),
    MetricSpec("gauge", "serve.audit.drift", "fraction",
               "mean absolute prediction residual of the most recently "
               "closed SLO window (calibration drift)"),
    # -- online model recalibration (adapt/, fed by serve/engine.py) -----
    MetricSpec("counter", "serve.adapt.observations", "comparisons",
               "audited comparisons streamed into the online refitter "
               "(training and holdout together)"),
    MetricSpec("counter", "serve.adapt.refits", "refits",
               "mini-batch full refits run over the observation window"),
    MetricSpec("counter", "serve.adapt.swaps", "swaps",
               "coefficient sets hot-swapped into the prediction "
               "service (reverts to static included)"),
    MetricSpec("counter", "serve.adapt.reverts", "swaps",
               "swaps that shed back to the static offline-trained "
               "coefficients after candidates failed the holdout check"),
    MetricSpec("counter", "serve.adapt.rejected", "candidates",
               "candidate coefficient sets rejected by the holdout "
               "sanity check"),
    MetricSpec("counter", "serve.adapt.invalidations", "entries",
               "prediction-derived cache entries (decision LRU plus "
               "prediction memo) dropped by coefficient swaps"),
    MetricSpec("gauge", "serve.adapt.model_version", "version",
               "monotone version of the serving coefficients (0 = the "
               "static offline-trained model)"),
    # -- live telemetry pipeline (obs/timeseries.py) ---------------------
    MetricSpec("counter", "serve.telemetry.samples", "frames",
               "telemetry frames recorded by the installed time-series "
               "sampler (epoch cadence for replays, wall cadence for "
               "the API server)"),
    MetricSpec("counter", "serve.telemetry.frames", "frames",
               "in-flight snapshot frames streamed from sharded API "
               "workers (serve-api --shards N) and merged incrementally "
               "into the parent"),
    # -- alert engine (obs/alerts.py, fed at SLO window close) -----------
    MetricSpec("counter", "serve.alert.firings", "alerts",
               "alert rules that transitioned into the firing state"),
    MetricSpec("counter", "serve.alert.resolves", "alerts",
               "firing alert rules whose fast window dropped back under "
               "the threshold"),
    MetricSpec("gauge", "serve.alert.active", "alerts",
               "alert rules currently in the firing state"),
    MetricSpec("alert", "serve.alert.slo_burn_rate", "fraction",
               "multi-window SLO burn-rate rule: the window violation "
               "rate burns the allowed violation budget too fast over "
               "both the fast and slow window"),
    MetricSpec("alert", "serve.alert.calibration_drift", "fraction",
               "calibration-drift rule: the window's mean absolute "
               "prediction residual exceeds the drift bound"),
    MetricSpec("alert", "serve.alert.shed_rate", "fraction",
               "shed-rate rule: the fraction of the window's placement "
               "requests shed to baseline exceeds the threshold"),
    MetricSpec("alert", "serve.alert.queue_saturation", "fraction",
               "queue-saturation rule: API queue depth over its bound "
               "(evaluated on the wall clock by the API server)"),
    # -- experiment runner (experiments/runner.py) -----------------------
    MetricSpec("gauge", "runner.jobs", "processes",
               "worker processes the runner used"),
    MetricSpec("gauge", "runner.experiments", "experiments",
               "experiments the runner was asked to run"),
    # -- spans (leaf names; paths are slash-joined nestings) -------------
    MetricSpec("span", "experiment.{id}", "seconds",
               "one experiment driver, end to end"),
    MetricSpec("span", "characterize_many", "seconds",
               "Ruler characterization sweep over a population"),
    MetricSpec("span", "trainer.pair_dataset", "seconds",
               "pairwise co-location dataset build"),
    MetricSpec("span", "trainer.server_dataset", "seconds",
               "server-topology dataset build"),
    MetricSpec("span", "cluster.apply_policy", "seconds",
               "one policy pass over the whole cluster"),
    MetricSpec("span", "serve.replay", "seconds",
               "one trace replayed end to end through the serving engine"),
    MetricSpec("span", "serve.decide", "seconds",
               "vectorized phase 1: all epochs' decisions batched "
               "through the decider's columnar interface"),
    MetricSpec("span", "serve.place", "seconds",
               "vectorized phase 2: per-pool placement kernels, one "
               "encoded-event loop over lazily validated heaps "
               "(in-process or sharded)"),
    MetricSpec("span", "serve.score", "seconds",
               "vectorized phase 3: event assembly plus per-epoch "
               "aggregated SLO/audit scoring"),
    MetricSpec("span", "serve.shard.replay", "seconds",
               "one shard worker replaying its pools' placement kernels"),
    MetricSpec("span", "serve.shard.merge", "seconds",
               "folding shard workers' results and metric snapshots "
               "back into the parent"),
    MetricSpec("span", "serve.adapt.refit", "seconds",
               "one candidate coefficient set assembled (RLS readout or "
               "mini-batch full refit over the window)"),
    MetricSpec("span", "serve.adapt.swap", "seconds",
               "one coefficient hot-swap: override install plus cache "
               "invalidation"),
    MetricSpec("span", "serve.api.batch", "seconds",
               "one decision micro-batch: all-hit place batches are "
               "decided on the event loop, the rest on an executor thread "
               "(epoch prefetch plus per-request decisions)"),
    MetricSpec("span", "serve.api.shard_merge", "seconds",
               "folding one API shard worker's metric snapshot back into "
               "the parent registry"),
    # -- span failure marking (obs/spans.py) -----------------------------
    MetricSpec("counter", "{span_path}.errors", "errors",
               "span blocks that exited via exception, keyed by the "
               "recorded span path"),
    # -- structured trace events (obs/trace.py; simulated-clock track) ---
    MetricSpec("trace", "serve.decision", "markers",
               "one placement-decision marker per arrival: app, profile, "
               "placement, predicted degradation"),
    MetricSpec("trace", "serve.engine.running", "jobs",
               "resident-job counter samples at epoch boundaries"),
    MetricSpec("trace", "serve.slo.violation_rate", "fraction",
               "violation-rate counter samples at window closes"),
    MetricSpec("trace", "serve.audit.drift", "fraction",
               "calibration-drift counter samples at window closes"),
    MetricSpec("trace", "serve.alert.fired", "markers",
               "one instant marker per alert rule firing transition"),
    MetricSpec("trace", "serve.alert.resolved", "markers",
               "one instant marker per alert rule resolve transition"),
)


def specs_of_kind(kind: str) -> tuple[MetricSpec, ...]:
    """Every catalog entry of one instrument kind (counter/gauge/...)."""
    return tuple(spec for spec in CATALOG if spec.kind == kind)


def find_spec(kind: str, name: str) -> MetricSpec | None:
    """The catalog entry a concrete metric name falls under, if any."""
    for spec in CATALOG:
        if spec.kind == kind and spec.pattern.match(name):
            return spec
    return None


def match_span_path(path: str) -> bool:
    """Whether every segment of a recorded span path is cataloged."""
    return all(find_spec("span", segment) is not None
               for segment in path.split("/"))
