"""Per-layer span recorder for the end-to-end benchmark.

The benchmark measures the program from outside: it never edits
``src/``. For a traced run it wraps the public entry points of each layer
module (solver, batch solver, simulator memo, disk cache, characterize,
train, predict, cluster, scale-out, queueing, serve, API) in the process
that does the work, and records one span per call.

Spans record name, start, end and parent on a per-thread stack and stay
in memory until the run ends. A span's self time is its duration minus
the time its child spans cover; a layer's self time is the sum over its
spans. Whatever no span covers is ``proc.unattributed_s``, so the layer
self times plus the unattributed time add up to the traced wall time.

Class methods are patched on the class. Module functions are patched at
every import site, because ``from x import f`` binds the name at import
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "EXPERIMENT_IDS",
    "PER_LAYER",
    "Recorder",
    "install",
    "layer_metrics",
    "uninstall",
]


def _count_problems(rec, args, result, outer, elapsed):
    rec.note("smt.batch", "problems", len(args[1]))


def _count_one_request(rec, args, result, outer, elapsed):
    rec.note("smt.simulator", "requests", 1)


def _count_requests(rec, args, result, outer, elapsed):
    rec.note("smt.simulator", "requests", len(args[1]))


def _count_disk_hit(rec, args, result, outer, elapsed):
    rec.note("smt.diskcache.get", "hits", result is not None)


def _count_decision(rec, args, result, outer, elapsed):
    if outer:
        rec.note("serve.service.decide", "decisions", 1)
        rec.note("serve.service.decide", "sheds", bool(result.shed))


def _count_decision_batch(rec, args, result, outer, elapsed):
    if outer:
        rec.note("serve.service.decide", "decisions", len(result.shed))
        rec.note("serve.service.decide", "sheds", int(result.shed.sum()))


def _count_decision_stream(rec, args, result, outer, elapsed):
    if outer:
        _counts, shed = result
        rec.note("serve.service.decide", "decisions", len(shed))
        rec.note("serve.service.decide", "sheds", int(shed.sum()))


def _count_lru_miss(rec, args, result, outer, elapsed):
    rec.note("serve.service.decide", "misses", 1)


def _count_batch(rec, args, result, outer, elapsed):
    occupancy = len(args[1])
    rec.note("serve.api.batch", "requests", occupancy)
    # Every request of a micro-batch waits for the whole batch.
    rec.note("serve.api.batch", "request_s", occupancy * elapsed)


def _experiment_name(args) -> str:
    return f"experiments.{args[0]}"


#: (module, attribute, layer, observer, span naming). An attribute with
#: a dot is a method patched on its class; otherwise a module function
#: patched at every import site.
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.smt.solver", "solve", "smt.solver", None, None),
    ("repro.smt.batch", "solve_many", "smt.batch", _count_problems, None),
    ("repro.smt.simulator", "Simulator.run", "smt.simulator",
     _count_one_request, None),
    ("repro.smt.simulator", "Simulator.run_many", "smt.simulator",
     _count_requests, None),
    ("repro.smt.simulator", "Simulator.prefetch", "smt.simulator",
     _count_requests, None),
    ("repro.smt.diskcache", "PersistentSolveCache.get", "smt.diskcache.get",
     _count_disk_hit, None),
    ("repro.smt.diskcache", "PersistentSolveCache.put", "smt.diskcache.put",
     None, None),
    ("repro.core.characterize", "characterize", "core.characterize",
     None, None),
    ("repro.core.characterize", "characterize_many", "core.characterize",
     None, None),
    ("repro.core.trainer", "build_pair_dataset", "core.trainer", None, None),
    ("repro.core.trainer", "build_server_dataset", "core.trainer",
     None, None),
    ("repro.core.trainer", "evaluate_model", "core.trainer", None, None),
    ("repro.core.predictor", "SMiTe.fit", "core.predictor.fit", None, None),
    ("repro.core.predictor", "SMiTe.fit_server", "core.predictor.fit",
     None, None),
    ("repro.core.predictor", "SMiTe.predict_server",
     "core.predictor.predict_server", None, None),
    ("repro.scheduler.cluster", "Cluster.apply_policy", "scheduler.cluster",
     None, None),
    ("repro.scheduler.scaleout", "ScaleOutStudy.run", "scheduler.scaleout",
     None, None),
    ("repro.scheduler.scaleout", "fit_tail_model", "scheduler.scaleout",
     None, None),
    ("repro.queueing.des", "simulate_fcfs_mm1", "queueing.des", None, None),
    ("repro.experiments.registry", "run_experiment", "experiments", None,
     _experiment_name),
    ("repro.serve.traffic", "poisson_trace", "serve.traffic", None, None),
    ("repro.serve.traffic", "diurnal_trace", "serve.traffic", None, None),
    ("repro.serve.traffic", "phase_shift_trace", "serve.traffic", None, None),
    ("repro.serve.engine", "ServingEngine.replay", "serve.engine",
     None, None),
    ("repro.serve.shard", "replay_pool_events", "serve.shard", None, None),
    ("repro.serve.shard", "run_pool_shards", "serve.shard", None, None),
    ("repro.serve.shard", "PoolKernel.step", "serve.shard", None, None),
    ("repro.serve.shard", "EpochShardPool.step", "serve.shard", None, None),
    ("repro.serve.slo", "WindowedSlo.observe", "serve.slo", None, None),
    ("repro.serve.slo", "WindowedSlo.observe_groups", "serve.slo",
     None, None),
    ("repro.serve.slo", "WindowedSlo.finish", "serve.slo", None, None),
    ("repro.serve.service", "PredictionService.begin_epoch",
     "serve.service.begin_epoch", None, None),
    ("repro.serve.service", "PredictionService.begin_epoch_batch",
     "serve.service.begin_epoch", None, None),
    ("repro.serve.service", "Decider.decide", "serve.service.decide",
     _count_decision, None),
    ("repro.serve.service", "PredictionService.decide_batch",
     "serve.service.decide", _count_decision_batch, None),
    ("repro.serve.service", "PredictionService.decide_stream",
     "serve.service.decide", _count_decision_stream, None),
    ("repro.serve.service", "PredictionService._predict_safe_count",
     "serve.service.decide", _count_lru_miss, None),
    ("repro.serve.api.protocol", "encode_frame", "serve.api.framing",
     None, None),
    ("repro.serve.api.protocol", "decode_payload", "serve.api.framing",
     None, None),
    ("repro.serve.api.protocol", "validate_request", "serve.api.framing",
     None, None),
    ("repro.serve.api.server", "ApiServer._run_batch", "serve.api.batch",
     _count_batch, None),
)

#: Entry points imported before patching, so that every module holding a
#: ``from x import f`` binding is loaded when the import sites are scanned.
_ENTRY_MODULES = ("repro.cli", "repro.experiments.runner")

#: The paper pipeline's experiments, in registry order.
EXPERIMENT_IDS = (
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "figs_online", "figs_adaptive",
)

#: Every per-layer metric a traced run reports: (name, unit, better).
#: Self times are reported as shares of the traced wall time, so that a
#: layer a workload never enters reads 0 instead of a constant time.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("proc.wall_s", "s", "lower"),
    ("proc.unattributed_share", "share", "lower"),
    ("smt.solver.calls", "count", "lower"),
    ("smt.solver.self_share", "share", "lower"),
    ("smt.batch.calls", "count", "lower"),
    ("smt.batch.problems", "count", "lower"),
    ("smt.batch.problems_per_call", "problems", "higher"),
    ("smt.batch.self_share", "share", "lower"),
    ("smt.simulator.requests", "count", "lower"),
    ("smt.simulator.memo_hit_ratio", "ratio", "higher"),
    ("smt.simulator.self_share", "share", "lower"),
    ("smt.diskcache.gets", "count", "lower"),
    ("smt.diskcache.hit_ratio", "ratio", "higher"),
    ("smt.diskcache.get_self_share", "share", "lower"),
    ("smt.diskcache.puts", "count", "lower"),
    ("smt.diskcache.put_self_share", "share", "lower"),
    ("core.characterize.calls", "count", "lower"),
    ("core.characterize.self_share", "share", "lower"),
    ("core.trainer.self_share", "share", "lower"),
    ("core.predictor.fit_self_share", "share", "lower"),
    ("core.predictor.predict_server_calls", "count", "lower"),
    ("core.predictor.predict_server_self_share", "share", "lower"),
    ("scheduler.cluster.calls", "count", "lower"),
    ("scheduler.cluster.self_share", "share", "lower"),
    ("scheduler.scaleout.self_share", "share", "lower"),
    ("queueing.des.calls", "count", "lower"),
    ("queueing.des.self_share", "share", "lower"),
    ("experiments.self_share", "share", "lower"),
    *((f"experiments.{eid}.total_share", "share", "lower")
      for eid in EXPERIMENT_IDS),
    ("serve.traffic.self_share", "share", "lower"),
    ("serve.engine.self_share", "share", "lower"),
    ("serve.shard.self_share", "share", "lower"),
    ("serve.slo.self_share", "share", "lower"),
    ("serve.service.begin_epoch_self_share", "share", "lower"),
    ("serve.service.decide_calls", "count", "lower"),
    ("serve.service.decide_self_share", "share", "lower"),
    ("serve.service.lru_hit_ratio", "ratio", "higher"),
    ("serve.service.shed_ratio", "ratio", "lower"),
    ("serve.api.framing_self_share", "share", "lower"),
    ("serve.api.batch_self_share", "share", "lower"),
    ("serve.api.batch_occupancy", "requests", "higher"),
    ("serve.api.busy_share", "share", "lower"),
    ("serve.api.client_wait_share", "share", "lower"),
)


class _ThreadSpans:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Recorder:
    """Collects spans and per-layer counts for one process."""

    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self._layer_of: list[str] = []
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._notes: dict[str, dict[str, float]] = {}
        self.started = time.perf_counter()
        self.stopped: float | None = None

    def name_id(self, name: str, layer: str) -> int:
        """The id of span ``name`` (in ``layer``), allocated on first use."""
        found = self._names.get(name)
        if found is not None:
            return found
        with self._lock:
            if name not in self._names:
                self._names[name] = len(self._layer_of)
                self._layer_of.append(layer)
            return self._names[name]

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def enter(self, name_id: int) -> tuple[_ThreadSpans, int, bool]:
        """Open a span; returns its handle and whether it is the outermost
        span of its layer on this thread."""
        spans = self._spans()
        index = len(spans.start)
        parent = spans.stack[-1] if spans.stack else -1
        outer = parent < 0 or (self._layer_of[spans.name[parent]]
                               != self._layer_of[name_id])
        spans.name.append(name_id)
        spans.parent.append(parent)
        spans.end.append(0.0)
        spans.stack.append(index)
        spans.start.append(time.perf_counter())
        return spans, index, outer

    @staticmethod
    def leave(spans: _ThreadSpans, index: int) -> float:
        """Close a span; returns its duration."""
        end = time.perf_counter()
        spans.end[index] = end
        spans.stack.pop()
        return end - spans.start[index]

    def note(self, layer: str, key: str, value: float) -> None:
        """Add ``value`` to one of a layer's counts."""
        with self._lock:
            counts = self._notes.setdefault(layer, {})
            counts[key] = counts.get(key, 0) + value

    def stop(self) -> None:
        """Mark the end of the traced wall-clock interval."""
        self.stopped = time.perf_counter()

    def summary(self) -> dict[str, Any]:
        """Wall time, per-layer self time and counts, and the span tree.

        The tree maps each span path (names joined by ``/``, root first)
        to ``[calls, total_s, self_s]``.
        """
        stopped = self.stopped if self.stopped is not None \
            else time.perf_counter()
        names = {nid: name for name, nid in self._names.items()}
        layers: dict[str, dict[str, float]] = {}
        tree: dict[str, list[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            n = len(spans.start)
            ends = [e if e > 0.0 else stopped for e in spans.end]
            durations = [ends[i] - spans.start[i] for i in range(n)]
            covered = [0.0] * n
            for i in range(n):
                parent = spans.parent[i]
                if parent >= 0:
                    covered[parent] += durations[i]
            paths: list[str] = []
            for i in range(n):
                name = names[spans.name[i]]
                parent = spans.parent[i]
                path = name if parent < 0 else f"{paths[parent]}/{name}"
                paths.append(path)
                own = durations[i] - covered[i]
                node = tree.setdefault(path, [0, 0.0, 0.0])
                node[0] += 1
                node[1] += durations[i]
                node[2] += own
                layer = layers.setdefault(
                    self._layer_of[spans.name[i]],
                    {"calls": 0, "self_s": 0.0, "total_s": 0.0},
                )
                layer["calls"] += 1
                layer["self_s"] += own
                if parent < 0 or self._layer_of[spans.name[parent]] \
                        != self._layer_of[spans.name[i]]:
                    layer["total_s"] += durations[i]
        with self._lock:
            for layer_name, counts in self._notes.items():
                layers.setdefault(
                    layer_name, {"calls": 0, "self_s": 0.0, "total_s": 0.0},
                ).update(counts)
        experiments = {path.rpartition("/")[2].partition(".")[2]: node[1]
                       for path, node in tree.items()
                       if path.rpartition("/")[2].startswith("experiments.")}
        return {
            "wall_s": stopped - self.started,
            "layers": layers,
            "experiments": experiments,
            "tree": tree,
        }

    def dump(self, path: Path) -> None:
        """Write :meth:`summary` as JSON."""
        path.write_text(json.dumps(self.summary()), encoding="utf-8")


def _wrap(rec: Recorder, fn: Callable, layer: str,
          observe: Callable | None, naming: Callable | None) -> Callable:
    fixed = rec.name_id(layer, layer)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        name_id = fixed if naming is None \
            else rec.name_id(naming(args), layer)
        spans, index, outer = rec.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = rec.leave(spans, index)
        if observe is not None:
            observe(rec, args, result, outer, elapsed)
        return result

    return wrapped


def install(rec: Recorder) -> list[tuple[Any, str, Any]]:
    """Patch every target; returns what :func:`uninstall` restores."""
    for module_name in (*_ENTRY_MODULES, *(t[0] for t in TARGETS)):
        importlib.import_module(module_name)
    patched: list[tuple[Any, str, Any]] = []
    functions: dict[int, tuple[Any, Callable]] = {}
    for module_name, attribute, layer, observe, naming in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[name]
            setattr(owner, name, _wrap(rec, original, layer, observe, naming))
            patched.append((owner, name, original))
        else:
            original = getattr(module, name)
            functions[id(original)] = (
                original, _wrap(rec, original, layer, observe, naming),
            )
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
                patched.append((module, name, value))
    return patched


def uninstall(patched: list[tuple[Any, str, Any]]) -> None:
    """Undo :func:`install`."""
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)


def _merge(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    wall = 0.0
    layers: dict[str, dict[str, float]] = {}
    experiments: dict[str, float] = {}
    for summary in summaries:
        wall += summary["wall_s"]
        for layer, counts in summary["layers"].items():
            merged = layers.setdefault(layer, {})
            for key, value in counts.items():
                merged[key] = merged.get(key, 0) + value
        for eid, seconds in summary["experiments"].items():
            experiments[eid] = experiments.get(eid, 0.0) + seconds
    return {"wall_s": wall, "layers": layers, "experiments": experiments}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summaries: list[dict[str, Any]], *,
                  client_request_s: float = 0.0) -> dict[str, float]:
    """The :data:`PER_LAYER` values for one workload's traced processes.

    ``client_request_s`` is the summed round-trip time the benchmark's
    API clients measured; the share of it not spent in a server batch is
    the time requests spent on framing, sockets and queueing.
    """
    merged = _merge(summaries)
    wall = merged["wall_s"]
    layers = merged["layers"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def share(*names: str) -> float:
        return _ratio(sum(get(name, "self_s") for name in names), wall)

    attributed = sum(counts.get("self_s", 0.0) for counts in layers.values())
    decisions = get("serve.service.decide", "decisions")
    sheds = get("serve.service.decide", "sheds")
    answered = decisions - sheds
    values = {
        "proc.wall_s": wall,
        "proc.unattributed_share": _ratio(wall - attributed, wall),
        "smt.solver.calls": get("smt.solver", "calls"),
        "smt.solver.self_share": share("smt.solver"),
        "smt.batch.calls": get("smt.batch", "calls"),
        "smt.batch.problems": get("smt.batch", "problems"),
        "smt.batch.problems_per_call": _ratio(
            get("smt.batch", "problems"), get("smt.batch", "calls")),
        "smt.batch.self_share": share("smt.batch"),
        "smt.simulator.requests": get("smt.simulator", "requests"),
        "smt.simulator.memo_hit_ratio": 1.0 - _ratio(
            get("smt.diskcache.get", "calls"),
            get("smt.simulator", "requests"),
        ) if get("smt.simulator", "requests") else 0.0,
        "smt.simulator.self_share": share("smt.simulator"),
        "smt.diskcache.gets": get("smt.diskcache.get", "calls"),
        "smt.diskcache.hit_ratio": _ratio(
            get("smt.diskcache.get", "hits"),
            get("smt.diskcache.get", "calls")),
        "smt.diskcache.get_self_share": share("smt.diskcache.get"),
        "smt.diskcache.puts": get("smt.diskcache.put", "calls"),
        "smt.diskcache.put_self_share": share("smt.diskcache.put"),
        "core.characterize.calls": get("core.characterize", "calls"),
        "core.characterize.self_share": share("core.characterize"),
        "core.trainer.self_share": share("core.trainer"),
        "core.predictor.fit_self_share": share("core.predictor.fit"),
        "core.predictor.predict_server_calls": get(
            "core.predictor.predict_server", "calls"),
        "core.predictor.predict_server_self_share": share(
            "core.predictor.predict_server"),
        "scheduler.cluster.calls": get("scheduler.cluster", "calls"),
        "scheduler.cluster.self_share": share("scheduler.cluster"),
        "scheduler.scaleout.self_share": share("scheduler.scaleout"),
        "queueing.des.calls": get("queueing.des", "calls"),
        "queueing.des.self_share": share("queueing.des"),
        "experiments.self_share": share("experiments"),
        "serve.traffic.self_share": share("serve.traffic"),
        "serve.engine.self_share": share("serve.engine"),
        "serve.shard.self_share": share("serve.shard"),
        "serve.slo.self_share": share("serve.slo"),
        "serve.service.begin_epoch_self_share": share(
            "serve.service.begin_epoch"),
        "serve.service.decide_calls": decisions,
        "serve.service.decide_self_share": share("serve.service.decide"),
        "serve.service.lru_hit_ratio": 1.0 - _ratio(
            get("serve.service.decide", "misses"), answered,
        ) if answered else 0.0,
        "serve.service.shed_ratio": _ratio(sheds, decisions),
        "serve.api.framing_self_share": share("serve.api.framing"),
        "serve.api.batch_self_share": share("serve.api.batch"),
        "serve.api.batch_occupancy": _ratio(
            get("serve.api.batch", "requests"),
            get("serve.api.batch", "calls")),
        "serve.api.busy_share": _ratio(
            get("serve.api.batch", "total_s"), wall),
        "serve.api.client_wait_share": max(0.0, 1.0 - _ratio(
            get("serve.api.batch", "request_s"), client_request_s,
        )) if client_request_s else 0.0,
    }
    for eid in EXPERIMENT_IDS:
        values[f"experiments.{eid}.total_share"] = _ratio(
            merged["experiments"].get(eid, 0.0), wall)
    return values
