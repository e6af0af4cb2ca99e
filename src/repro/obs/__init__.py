"""Observability: metrics, timing spans, and run reports.

``repro.obs`` is the dependency-free instrumentation layer the whole
pipeline reports through. It provides

- a :class:`~repro.obs.registry.MetricsRegistry` of named counters,
  gauges, and mergeable log-bucketed histograms;
- context-manager timing :func:`~repro.obs.spans.span`\\ s that nest into
  slash-joined paths (``runner/experiment.fig10``);
- process-safe aggregation: worker processes ship
  :func:`~repro.obs.registry.snapshot` dicts back to the parent, which
  :func:`~repro.obs.registry.merge`\\ s them into one run-wide view;
- machine-readable run reports (:mod:`repro.obs.report`), written by the
  experiment runner's ``--metrics-out`` flag or the ``SMITE_METRICS_OUT``
  environment variable, plus an opt-in human summary table;
- a :mod:`~repro.obs.catalog` naming every metric the codebase emits, so
  ``docs/OBSERVABILITY.md`` can be verified against the live registry;
- opt-in structured tracing (:mod:`repro.obs.trace`): a bounded event
  ring buffer exported as Chrome trace-event JSON, fed by spans and the
  serving engine;
- a prediction-accuracy audit (:mod:`repro.obs.audit`): per-decision
  predicted-vs-realized degradation residuals with per-pool/per-pair
  attribution, exported in the run report's ``audit`` section;
- streaming telemetry (:mod:`repro.obs.timeseries`): a bounded,
  mergeable time-series sampler over registry channels, exported as
  JSONL or OpenMetrics text, plus declarative SLO burn-rate alerting
  (:mod:`repro.obs.alerts`);
- one lifecycle for both recorders, :func:`repro.obs.report.recording`:
  it arms the tracer and the sampler from ``--trace-out`` /
  ``--telemetry-out`` or ``SMITE_TRACE_OUT`` / ``SMITE_TELEMETRY_OUT``
  (a flag wins) and writes both when the block exits;
- report tooling on the CLI: ``repro.cli obs view|diff|trace|top``.

Instrumentation must be cheap enough to leave on: everything here is
incremented per *operation* (a solve, a cache probe, an experiment), never
per solver iteration, and the run-report overhead criterion is <2% wall
time on the benchmark grid.

Typical use::

    from repro import obs

    with obs.span("characterize"):
        obs.counter("core.characterize.workloads").inc()

    snap = obs.snapshot()          # JSON-able dict, mergeable
    obs.merge(worker_snapshot)     # fold a child worker back in
"""

from __future__ import annotations

from repro.obs import trace
from repro.obs.audit import PredictionAudit, ResidualStats
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    diff_snapshots,
    gauge,
    get_registry,
    histogram,
    merge,
    reset,
    snapshot,
)
from repro.obs.spans import current_span_path, span, time_histogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PredictionAudit",
    "ResidualStats",
    "counter",
    "current_span_path",
    "diff_snapshots",
    "gauge",
    "get_registry",
    "histogram",
    "merge",
    "reset",
    "snapshot",
    "span",
    "time_histogram",
    "trace",
]
