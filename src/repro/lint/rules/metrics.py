"""Metric-catalog parity rules (SMT2xx).

``repro.obs.catalog`` is the single source of truth for every metric
name the codebase emits. The runtime docs-parity tests can only verify
the names a given test run happens to touch; this rule family proves
the property for the *whole tree* at review time: every
``counter``/``gauge``/``histogram``/``span`` recording site must use a
name the linter can resolve statically (SMT201), and that resolved name
must fall under a catalog entry (SMT202). f-strings are resolved
structurally — ``f"experiment.{eid}"`` satisfies the catalog pattern
``experiment.{id}`` — so dynamic *segments* are fine as long as the
catalog declares them.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Rule, register
from repro.obs.catalog import find_spec

__all__ = ["StaticMetricName", "CatalogedMetricName"]

#: Recording entry points -> the catalog kind their name argument uses.
_RECORDERS: dict[str, str] = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "span": "span",
    "time_histogram": "histogram",
    # Trace emission sites: markers and counter samples use names
    # cataloged under the dedicated "trace" kind.
    "instant": "trace",
    "counter_value": "trace",
    # Telemetry tracking registrations reuse the registry kinds.
    "track_counter": "counter",
    "track_gauge": "gauge",
    "track_percentile": "histogram",
    # Alert-rule factories; call sites that keep the default rule name
    # pass no name argument and are skipped.
    "burn_rate_rule": "alert",
    "drift_rule": "alert",
    "shed_rate_rule": "alert",
    "queue_saturation_rule": "alert",
}

#: Placeholder substituted for f-string interpolations when matching the
#: catalog's ``{placeholder}`` patterns.
_WILDCARD = "X"


def _recorder_kind(func: ast.AST) -> str | None:
    """The catalog kind if ``func`` is a metric recording entry point."""
    if isinstance(func, ast.Name):
        return _RECORDERS.get(func.id)
    if isinstance(func, ast.Attribute):
        return _RECORDERS.get(func.attr)
    return None


def _name_argument(node: ast.Call) -> ast.AST | None:
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg in ("name", "path"):
            return keyword.value
    return None


def _resolve(arg: ast.AST) -> tuple[str | None, bool]:
    """(candidate name, had dynamic segments) or (None, _) if unresolvable.

    Constants resolve exactly. f-strings resolve to a candidate with each
    interpolation replaced by a wildcard token, provided the *static*
    skeleton is non-trivial (a purely dynamic name has no skeleton to
    check against the catalog).
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr):
        parts: list[str] = []
        static_text = ""
        for piece in arg.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
                static_text += piece.value
            elif isinstance(piece, ast.FormattedValue):
                parts.append(_WILDCARD)
            else:
                return None, True
        if not static_text:
            return None, True
        return "".join(parts), True
    return None, True


class _MetricRule(Rule):
    """Shared call-site scanning for the two parity rules."""

    def _inspect(self, node: ast.Call, ctx):
        kind = _recorder_kind(node.func)
        if kind is None:
            return None
        arg = _name_argument(node)
        if arg is None:
            return None
        name, dynamic = _resolve(arg)
        return kind, arg, name, dynamic


@register
class StaticMetricName(_MetricRule):
    """Metric names must be statically resolvable at the recording site."""

    id = "SMT201"
    family = "metrics"
    summary = ("obs metric/span name is not statically resolvable "
               "(variable or fully-dynamic expression)")

    def visit_Call(self, node: ast.Call, ctx) -> None:
        inspected = self._inspect(node, ctx)
        if inspected is None:
            return
        kind, arg, name, _ = inspected
        if name is None:
            ctx.report(self, f"{kind} name {ast.unparse(arg)!r} cannot be "
                             "resolved statically; use a literal or an "
                             "f-string with a static skeleton", node=arg)


@register
class CatalogedMetricName(_MetricRule):
    """Every resolvable metric name must fall under a catalog entry."""

    id = "SMT202"
    family = "metrics"
    summary = ("obs metric/span name is missing from repro.obs.catalog")

    def visit_Call(self, node: ast.Call, ctx) -> None:
        inspected = self._inspect(node, ctx)
        if inspected is None:
            return
        kind, arg, name, dynamic = inspected
        if name is None:
            return  # SMT201's finding
        if find_spec(kind, name) is None:
            shape = "f-string pattern" if dynamic else "name"
            ctx.report(self, f"{kind} {shape} {name!r} is not declared in "
                             "repro.obs.catalog; add a MetricSpec or delete "
                             "the recording", node=arg)
