"""Machine-readable run reports and the human summary table.

A *run report* is one JSON document describing everything a pipeline
invocation did: the merged metrics snapshot, per-worker sub-snapshots
(so cross-process aggregation stays auditable), per-experiment wall
times, and the command line. The experiment runner writes one with
``--metrics-out PATH`` (``SMITE_METRICS_OUT`` is its default), and
``repro.cli`` writes one through :func:`maybe_write_env_report` when
the variable is set.

:func:`recording` is the one lifecycle of the two opt-in recorders, the
trace (:mod:`repro.obs.trace`) and the telemetry series
(:mod:`repro.obs.timeseries`): every entry point arms both from their
``--trace-out``/``--telemetry-out`` flags or ``SMITE_TRACE_OUT``/
``SMITE_TELEMETRY_OUT`` with one ``with recording(...)`` block.

``repro.cli obs diff`` compares two reports to attribute a slowdown to
a phase: the top spans and the cache ratios say *where* the time went,
not just that it grew.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.analysis.tables import format_table
from repro.obs import timeseries, trace
from repro.obs.alerts import render_alerts
from repro.obs.registry import snapshot

__all__ = [
    "ENV_METRICS_OUT",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "build_report",
    "cache_ratios",
    "env_metrics_path",
    "load_report",
    "maybe_write_env_report",
    "provenance",
    "recording",
    "render_adapt",
    "render_audit",
    "render_report",
    "render_summary",
    "span_errors",
    "top_spans",
    "write_report",
]

#: Schema 2 added the ``provenance`` block and the optional ``audit``
#: section; schema 3 the optional ``alerts`` section.
#: :func:`load_report` upgrades older supported documents in place.
SCHEMA_VERSION = 3
SUPPORTED_SCHEMAS = (1, 2, 3)
ENV_METRICS_OUT = "SMITE_METRICS_OUT"


def provenance() -> dict[str, Any]:
    """The environment a report was produced in.

    Recorded so ``repro.cli obs diff`` can flag a regression that is
    really an environment change (different interpreter, different
    ``SMITE_*`` knobs) rather than a code change.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("SMITE_")
        },
    }


def build_report(
    *,
    command: Sequence[str] | None = None,
    wall_seconds: float | None = None,
    experiments: Mapping[str, float] | None = None,
    workers: Sequence[Mapping[str, Any]] | None = None,
    metrics: Mapping[str, Any] | None = None,
    audit: Mapping[str, Any] | None = None,
    adapt: Mapping[str, Any] | None = None,
    alerts: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a run report around the (already merged) metrics snapshot.

    ``workers`` carries the per-worker sub-snapshots (each a dict with at
    least ``experiments`` and ``metrics`` keys); the top-level
    ``metrics`` must already contain their merged totals. ``audit`` is a
    :meth:`~repro.obs.audit.PredictionAudit.snapshot` when the run kept
    prediction-accuracy books (``repro.cli serve`` does). ``adapt`` is a
    :meth:`~repro.adapt.swap.ModelRegistry.snapshot` when the run served
    with online recalibration enabled. ``alerts`` is an
    :meth:`~repro.obs.alerts.AlertEngine.snapshot` when the run
    evaluated alert rules.
    """
    return {
        "schema": SCHEMA_VERSION,
        "generator": "repro.obs",
        "command": list(command) if command is not None else sys.argv,
        "wall_seconds": wall_seconds,
        "provenance": provenance(),
        "experiments": dict(experiments or {}),
        "workers": [dict(w) for w in (workers or [])],
        "metrics": dict(metrics) if metrics is not None else snapshot(),
        "audit": dict(audit) if audit is not None else None,
        "adapt": dict(adapt) if adapt is not None else None,
        "alerts": dict(alerts) if alerts is not None else None,
    }


def load_report(path: str | Path) -> dict[str, Any]:
    """Read a run report, upgrading older supported schemas in place.

    Schema-1 documents (no ``provenance``, no ``audit``) load with those
    fields defaulted, so every consumer can assume the current shape.
    Unknown (future) schemas raise ``ValueError`` instead of being
    silently misread.
    """
    path = Path(path)
    report = json.loads(path.read_text(encoding="utf-8"))
    schema = report.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path}: unsupported run-report schema {schema!r}; "
            f"this build reads schemas {SUPPORTED_SCHEMAS}"
        )
    report.setdefault("provenance", {})
    report.setdefault("audit", None)
    report.setdefault("adapt", None)
    report.setdefault("alerts", None)
    report.setdefault("experiments", {})
    report.setdefault("workers", [])
    report.setdefault("metrics", {})
    return report


def write_report(path: str | Path, report: Mapping[str, Any]) -> Path:
    """Serialize a run report to ``path`` as stable, indented JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def env_metrics_path() -> str | None:
    """The ``SMITE_METRICS_OUT`` destination, or None when unset/empty."""
    return os.environ.get(ENV_METRICS_OUT) or None


def maybe_write_env_report(**kwargs: Any) -> Path | None:
    """Write a report to ``SMITE_METRICS_OUT`` if the variable is set."""
    path = env_metrics_path()
    if path is None:
        return None
    return write_report(path, build_report(**kwargs))


@contextmanager
def recording(
    trace_out: str | Path | None = None,
    telemetry_out: str | Path | None = None,
    telemetry_interval: float = timeseries.DEFAULT_INTERVAL_S,
) -> Iterator[None]:
    """Arm the trace and telemetry recorders for one block.

    Each output path comes from its argument (the ``--trace-out`` /
    ``--telemetry-out`` flag) or else from ``SMITE_TRACE_OUT`` /
    ``SMITE_TELEMETRY_OUT``; a flag wins. A recorder with no path is
    not installed, so its emission sites stay one ``None`` check. Both
    are uninstalled and written in ``finally``: a block that fails
    still leaves the files it armed.
    """
    trace_out = trace_out or os.environ.get(trace.ENV_TRACE_OUT)
    telemetry_out = (telemetry_out
                     or os.environ.get(timeseries.ENV_TELEMETRY_OUT))
    tracer = trace.install() if trace_out else None
    series = timeseries.install(telemetry_interval) if telemetry_out \
        else None
    try:
        yield
    finally:
        if tracer is not None:
            trace.uninstall()
            print(f"wrote {trace.write_chrome_trace(trace_out, tracer)}",
                  file=sys.stderr)
        if series is not None:
            timeseries.uninstall()
            print(f"wrote {timeseries.write_telemetry(telemetry_out, series)}",
                  file=sys.stderr)


# ----------------------------------------------------------------------
# Derived views

def top_spans(metrics: Mapping[str, Any],
              limit: int = 8) -> list[tuple[str, int, float, float]]:
    """(path, count, total_seconds, max_seconds) rows, busiest first."""
    rows = [
        (path, int(h["count"]), float(h["sum"]), float(h["max"]))
        for path, h in metrics.get("spans", {}).items()
    ]
    rows.sort(key=lambda r: -r[2])
    return rows[:limit]


def cache_ratios(metrics: Mapping[str, Any]) -> dict[str, float]:
    """Hit rates of the two solve caches (absent caches are omitted)."""
    counters = metrics.get("counters", {})
    ratios: dict[str, float] = {}
    disk_requests = counters.get("smt.diskcache.requests", 0)
    if disk_requests:
        ratios["smt.diskcache"] = (
            counters.get("smt.diskcache.hits", 0) / disk_requests
        )
    sim_requests = counters.get("smt.simulator.requests", 0)
    if sim_requests:
        ratios["smt.simulator.memo"] = (
            counters.get("smt.simulator.memo_hits", 0) / sim_requests
        )
    return ratios


def render_audit(audit: Mapping[str, Any]) -> str:
    """The audit section as per-pool and per-pair residual tables."""
    if not audit or not audit.get("samples"):
        return "no audit samples recorded"
    overall = audit.get("overall", {})
    parts = [
        f"prediction audit: {audit['samples']} comparisons, "
        f"mean |residual| {overall.get('mean_abs', 0.0):.4f}, "
        f"bias {overall.get('mean_signed', 0.0):+.4f} "
        f"(residual = predicted - actual degradation)"
    ]
    for table, title in (("pools", "per-pool residuals"),
                         ("pairs", "per-pair residuals")):
        rows = [
            (name, stats["count"], f"{stats['mean_abs']:.4f}",
             f"{stats['mean_signed']:+.4f}", f"{stats['max_abs']:.4f}")
            for name, stats in audit.get(table, {}).items()
        ]
        if rows:
            parts.append(format_table(
                ("pool" if table == "pools" else "pool|batch", "n",
                 "mean |resid|", "bias", "max |resid|"),
                rows, title=title,
            ))
    return "\n\n".join(parts)


def render_adapt(adapt: Mapping[str, Any]) -> str:
    """One line: which coefficient set ended up serving, and since when."""
    version = adapt.get("model_version", 0)
    origin = adapt.get("origin", "static")
    model_hash = adapt.get("model_hash", "static")
    swaps = adapt.get("swaps", 0)
    swapped = adapt.get("last_swap_epoch_s")
    when = (f", last swap at t={swapped:.0f}s" if swapped is not None
            else "")
    return (f"adaptation: serving model v{version} ({origin}, "
            f"hash {model_hash}), {swaps} swap(s){when}")


def render_report(report: Mapping[str, Any], *, limit: int = 8) -> str:
    """The ``repro.cli obs view`` rendering of one full run report."""
    parts: list[str] = []
    command = report.get("command")
    if command:
        parts.append("command: " + " ".join(str(c) for c in command))
    wall = report.get("wall_seconds")
    if wall is not None:
        parts.append(f"wall time: {wall:.1f}s")
    prov = report.get("provenance") or {}
    if prov:
        env = prov.get("env", {})
        knobs = (" with " + ", ".join(f"{k}={v}" for k, v in env.items())
                 if env else "")
        parts.append(f"environment: python {prov.get('python', '?')} on "
                     f"{prov.get('platform', '?')}{knobs}")
    experiments = report.get("experiments") or {}
    if experiments:
        parts.append(format_table(
            ("experiment", "seconds"),
            [(name, f"{seconds:.2f}")
             for name, seconds in sorted(experiments.items(),
                                         key=lambda kv: -kv[1])],
            title="experiments",
        ))
    summary = render_summary(report, limit=limit)
    if summary:
        parts.append(summary)
    audit = report.get("audit")
    if audit:
        parts.append(render_audit(audit))
    adapt = report.get("adapt")
    if adapt:
        parts.append(render_adapt(adapt))
    alerts = report.get("alerts")
    if alerts:
        parts.append(render_alerts(alerts, limit=limit))
    workers = report.get("workers") or []
    if len(workers) > 1:
        parts.append(f"({len(workers)} worker snapshots merged)")
    return "\n\n".join(parts)


def span_errors(metrics: Mapping[str, Any]) -> dict[str, int]:
    """Span paths that exited via exception -> error counts."""
    return {
        name[: -len(".errors")]: int(value)
        for name, value in metrics.get("counters", {}).items()
        if name.endswith(".errors")
        and name[: -len(".errors")] in metrics.get("spans", {})
    }


def render_summary(report_or_metrics: Mapping[str, Any],
                   *, limit: int = 8) -> str:
    """The opt-in human summary: top spans, cache ratios, key counters."""
    metrics = report_or_metrics.get("metrics", report_or_metrics)
    parts: list[str] = []

    spans = top_spans(metrics, limit)
    if spans:
        errors = span_errors(metrics)
        parts.append(format_table(
            ("span", "count", "total s", "max s", "errors"),
            [(path, count, total, worst, errors.get(path, 0))
             for path, count, total, worst in spans],
            title="top spans",
        ))

    ratios = cache_ratios(metrics)
    counters = metrics.get("counters", {})
    if ratios:
        rows = []
        if "smt.diskcache" in ratios:
            rows.append((
                "persistent disk cache",
                counters.get("smt.diskcache.hits", 0),
                counters.get("smt.diskcache.misses", 0),
                f"{ratios['smt.diskcache']:.1%}",
            ))
        if "smt.simulator.memo" in ratios:
            rows.append((
                "in-memory memo",
                counters.get("smt.simulator.memo_hits", 0),
                counters.get("smt.simulator.requests", 0)
                - counters.get("smt.simulator.memo_hits", 0),
                f"{ratios['smt.simulator.memo']:.1%}",
            ))
        parts.append(format_table(
            ("cache", "hits", "misses", "hit rate"), rows,
            title="solve caches",
        ))

    interesting = [
        (name, value) for name, value in sorted(counters.items())
        if not name.startswith(("smt.diskcache.", "smt.simulator."))
    ]
    if interesting:
        parts.append(format_table(("counter", "value"), interesting,
                                  title="counters"))
    if not parts:
        return "no metrics recorded"
    return "\n\n".join(parts)
