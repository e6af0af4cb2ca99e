"""Phase-attributed deltas between two run reports.

``repro.cli obs diff A B`` answers "what changed between these runs, and
where" without eyeballing two JSON files: wall time, per-span time
attribution, counter movements, audit accuracy, and — via the schema-2
``provenance`` block — whether the *environment* changed out from under
the comparison (different interpreter, different ``SMITE_*`` knobs), in
which case a throughput delta may not be a code regression at all.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.tables import format_table

__all__ = [
    "diff_reports",
    "provenance_changes",
    "render_diff",
]


def _span_totals(report: Mapping[str, Any]) -> dict[str, float]:
    metrics = report.get("metrics", report)
    return {
        path: float(hist.get("sum", 0.0))
        for path, hist in metrics.get("spans", {}).items()
    }


def _counters(report: Mapping[str, Any]) -> dict[str, float]:
    metrics = report.get("metrics", report)
    return {name: float(value)
            for name, value in metrics.get("counters", {}).items()}


def provenance_changes(
    a: Mapping[str, Any], b: Mapping[str, Any],
) -> list[str]:
    """Human-readable environment differences between two reports.

    An empty list means the runs are environment-comparable as far as
    the provenance block can tell.
    """
    prov_a = a.get("provenance") or {}
    prov_b = b.get("provenance") or {}
    changes: list[str] = []
    for key in ("python", "implementation", "platform"):
        if prov_a.get(key) != prov_b.get(key):
            changes.append(
                f"{key}: {prov_a.get(key, '?')} -> {prov_b.get(key, '?')}"
            )
    env_a = prov_a.get("env", {})
    env_b = prov_b.get("env", {})
    for knob in sorted(set(env_a) | set(env_b)):
        if env_a.get(knob) != env_b.get(knob):
            changes.append(
                f"{knob}: {env_a.get(knob, '<unset>')} -> "
                f"{env_b.get(knob, '<unset>')}"
            )
    return changes


def diff_reports(
    a: Mapping[str, Any], b: Mapping[str, Any], *, limit: int = 12,
) -> dict[str, Any]:
    """The structured A-to-B delta: spans, counters, audit, provenance.

    Span and counter rows are ``(name, a_value, b_value)`` sorted by
    absolute movement, largest first, truncated to ``limit`` rows each.
    """
    spans_a, spans_b = _span_totals(a), _span_totals(b)
    span_rows = sorted(
        (
            (path, spans_a.get(path, 0.0), spans_b.get(path, 0.0))
            for path in set(spans_a) | set(spans_b)
        ),
        key=lambda row: -abs(row[2] - row[1]),
    )
    counters_a, counters_b = _counters(a), _counters(b)
    counter_rows = sorted(
        (
            (name, counters_a.get(name, 0.0), counters_b.get(name, 0.0))
            for name in set(counters_a) | set(counters_b)
            if counters_a.get(name, 0.0) != counters_b.get(name, 0.0)
        ),
        key=lambda row: -abs(row[2] - row[1]),
    )
    # Optional sections are read with .get() throughout: a report
    # written before a section existed (schema 1/2, or a raw dict that
    # never passed through load_report) must diff cleanly, rendering
    # "n/a" on that side instead of raising.
    audit_a = (a.get("audit") or {}).get("overall", {})
    audit_b = (b.get("audit") or {}).get("overall", {})
    adapt_a, adapt_b = a.get("adapt") or {}, b.get("adapt") or {}
    alerts_a, alerts_b = a.get("alerts") or {}, b.get("alerts") or {}
    return {
        "wall_seconds": (a.get("wall_seconds"), b.get("wall_seconds")),
        "spans": span_rows[:limit],
        "counters": counter_rows[:limit],
        "audit_mean_abs": (audit_a.get("mean_abs"), audit_b.get("mean_abs")),
        "adapt_swaps": (adapt_a.get("swaps"), adapt_b.get("swaps")),
        "adapt_model_version": (adapt_a.get("model_version"),
                                adapt_b.get("model_version")),
        "alert_firings": (alerts_a.get("firings"), alerts_b.get("firings")),
        "alert_resolves": (alerts_a.get("resolves"),
                           alerts_b.get("resolves")),
        "provenance_changes": provenance_changes(a, b),
    }


def _ratio(before: float, after: float) -> str:
    return f"x{after / before:.2f}" if before else "new"


def _na(value: Any) -> str:
    """Render a possibly-absent section value ("n/a" when missing)."""
    return "n/a" if value is None else str(value)


def render_diff(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    a_label: str = "A",
    b_label: str = "B",
    limit: int = 12,
) -> str:
    """The ``repro.cli obs diff`` rendering of :func:`diff_reports`."""
    delta = diff_reports(a, b, limit=limit)
    parts: list[str] = []

    changes = delta["provenance_changes"]
    if changes:
        parts.append("environment changed between the runs — deltas below "
                     "may not be code-caused:\n" +
                     "\n".join(f"  {change}" for change in changes))

    wall_a, wall_b = delta["wall_seconds"]
    if wall_a is not None and wall_b is not None:
        parts.append(f"wall time: {wall_a:.2f}s -> {wall_b:.2f}s "
                     f"({_ratio(wall_a, wall_b)})")

    if delta["spans"]:
        parts.append(format_table(
            ("span", f"{a_label} s", f"{b_label} s", "ratio"),
            [(path, f"{va:.4f}", f"{vb:.4f}", _ratio(va, vb))
             for path, va, vb in delta["spans"]],
            title="span time deltas (largest movement first)",
        ))
    if delta["counters"]:
        parts.append(format_table(
            ("counter", a_label, b_label, "ratio"),
            [(name, int(va), int(vb), _ratio(va, vb))
             for name, va, vb in delta["counters"]],
            title="counter deltas",
        ))

    mae_a, mae_b = delta["audit_mean_abs"]
    if mae_a is not None or mae_b is not None:
        parts.append(
            "prediction audit mean |residual|: "
            f"{'-' if mae_a is None else format(mae_a, '.4f')} -> "
            f"{'-' if mae_b is None else format(mae_b, '.4f')}"
        )

    swaps_a, swaps_b = delta["adapt_swaps"]
    version_a, version_b = delta["adapt_model_version"]
    if swaps_a is not None or swaps_b is not None:
        parts.append(
            f"adaptation: swaps {_na(swaps_a)} -> {_na(swaps_b)}, "
            f"serving model v{_na(version_a)} -> v{_na(version_b)}"
        )

    firings_a, firings_b = delta["alert_firings"]
    resolves_a, resolves_b = delta["alert_resolves"]
    if firings_a is not None or firings_b is not None:
        parts.append(
            f"alerts: firings {_na(firings_a)} -> {_na(firings_b)}, "
            f"resolves {_na(resolves_a)} -> {_na(resolves_b)}"
        )
    if not parts:
        return "reports are metric-identical"
    return "\n\n".join(parts)
