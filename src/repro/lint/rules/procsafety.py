"""Process/thread-safety rules (SMT7xx).

The shard fan-out (``repro.serve.shard``, ``run_api_shards``) forks
worker processes whose memory is invisible to the parent: metric
increments, module-global updates, and half-closed pipes don't crash —
they silently drop data. These rules check the three contracts the
sharded runtime depends on:

- **SMT701** uses the phase-1 worker taint: any function reachable from
  a ``ProcessPoolExecutor.submit`` / ``multiprocessing.Process`` target
  that records obs metrics or mutates a module global is flagged unless
  that worker entrypoint folds its state back (calls
  ``obs.snapshot``/``obs.merge``/``obs.reset`` somewhere in its
  reachable set — the snapshot/merge protocol PR 2 shipped).
- **SMT702** flags executor submit targets that cannot cross the pickle
  boundary: lambdas, and nested functions (closures capture their
  enclosing frame, which does not pickle).
- **SMT703** flags process/socket resources created without a lifecycle
  guarantee: not in a ``with`` block, not stored on ``self`` of a class
  that defines a closer (``close``/``shutdown``/``__exit__``/...), and
  not closed inside a ``finally`` block in the creating function. Bare
  ``Pipe()`` ends and executors leak file descriptors per request — at
  serving QPS that is an outage, not a leak.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.graph import _CLOSER_NAMES
from repro.lint.registry import Rule, register

__all__ = ["WorkerStateLoss", "UnpicklableSubmit", "ResourceLifecycle"]


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _local_name(graph, qualname: str) -> str:
    fn = graph.functions.get(qualname)
    return fn.local if fn is not None else qualname


@register
class WorkerStateLoss(Rule):
    """Flag worker-side state mutation that never reaches the parent."""

    id = "SMT701"
    family = "procsafety"
    severity = Severity.ERROR
    summary = ("obs-metric or module-global mutation inside a shard "
               "worker without snapshot/merge foldback to the parent")

    def check_module(self, ctx) -> None:
        graph = ctx.graph
        mod = graph.module_for(ctx.relpath)
        if mod is None:
            return
        for fn in mod.functions.values():
            roots = graph.worker_taint.get(fn.qualname)
            if not roots:
                continue
            bad = sorted(r for r in roots
                         if not graph.root_folds_back(r))
            if not bad:
                continue
            worker = _local_name(graph, bad[0])
            for lineno, col, leaf in fn.obs_mutations:
                ctx.report(
                    self,
                    f"obs recorder `{leaf}` runs inside worker "
                    f"`{worker}`, whose metrics die with the process; "
                    "return `obs.snapshot()` from the worker and "
                    "`obs.merge(...)` it in the parent",
                    line=lineno, col=col,
                )
            for lineno, col, name, how in fn.global_mutations:
                ctx.report(
                    self,
                    f"module-global `{name}` mutated ({how}) inside "
                    f"worker `{worker}`; the write is invisible to the "
                    "parent process — return the data and fold it back",
                    line=lineno, col=col,
                )


@register
class UnpicklableSubmit(Rule):
    """Flag submit targets that cannot cross the pickle boundary."""

    id = "SMT702"
    family = "procsafety"
    severity = Severity.ERROR
    summary = ("lambda or closure (nested function) passed to a process "
               "executor submit/map — it cannot pickle")

    def check_module(self, ctx) -> None:
        graph = ctx.graph
        mod = graph.module_for(ctx.relpath)
        if mod is None:
            return
        for fn in mod.functions.values():
            for lineno, col, api, kind, name in fn.submits:
                if kind == "lambda":
                    ctx.report(
                        self,
                        f"lambda passed to `{api}` cannot pickle into "
                        "the worker process; move the body to a "
                        "module-level function",
                        line=lineno, col=col,
                    )
                    continue
                if kind != "name":
                    continue
                for target in graph.resolve_call(fn, name):
                    callee = graph.functions.get(target)
                    if callee is not None and callee.is_nested:
                        ctx.report(
                            self,
                            f"`{name}` is a nested function; its "
                            "closure does not pickle into the "
                            f"`{api}` worker — hoist it to module "
                            "level and pass captured state as "
                            "arguments",
                            line=lineno, col=col,
                        )
                        break


#: Constructors whose return value owns an OS resource the creator must
#: release. Matched on the import-expanded dotted name (or bare
#: executor class name, however it was imported).
_RESOURCE_CTORS = frozenset({
    "socket.socket", "socket.create_connection",
    "multiprocessing.Pipe",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
})
_RESOURCE_TAILS = frozenset({
    "ProcessPoolExecutor", "ThreadPoolExecutor",
})


@register
class ResourceLifecycle(Rule):
    """Flag resources with no close guarantee on every path."""

    id = "SMT703"
    family = "procsafety"
    severity = Severity.ERROR
    summary = ("executor/socket/pipe created without `with`, a closing "
               "`finally`, or a self-attribute on a class with a closer")

    def check_module(self, ctx) -> None:
        mod = ctx.graph.module_for(ctx.relpath)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            raw = _dotted(node.func)
            if not raw:
                continue
            expanded = mod.expand(raw) if mod is not None else raw
            if expanded not in _RESOURCE_CTORS \
                    and expanded.rpartition(".")[2] not in _RESOURCE_TAILS:
                continue
            self._check_site(ctx, node, expanded)

    def _check_site(self, ctx, node: ast.Call, ctor: str) -> None:
        parent = ctx.parent_map.get(node)
        if isinstance(parent, (ast.withitem, ast.Return, ast.Call,
                               ast.Await)):
            # `with` manages it; returning or passing it hands
            # ownership to the caller.
            return
        if not isinstance(parent, (ast.Assign, ast.AnnAssign)):
            ctx.report(
                self,
                f"`{ctor}(...)` result is dropped without being closed; "
                "bind it in a `with` block",
                node=node,
            )
            return
        targets = parent.targets if isinstance(parent, ast.Assign) \
            else [parent.target]
        names: list[str] = []
        for target in targets:
            elements = target.elts if isinstance(target, ast.Tuple) \
                else [target]
            for element in elements:
                if isinstance(element, ast.Name):
                    names.append(element.id)
                elif isinstance(element, ast.Attribute) \
                        and isinstance(element.value, ast.Name) \
                        and element.value.id == "self":
                    if not self._class_has_closer(ctx, node):
                        ctx.report(
                            self,
                            f"`self.{element.attr}` holds a `{ctor}` "
                            "but the class defines no closer "
                            "(`close`/`shutdown`/`__exit__`/...)",
                            node=node,
                        )
        if not names:
            return
        scope = ctx.enclosing_function(node) or ctx.tree
        for name in names:
            if not self._closed_in_finally(scope, name):
                ctx.report(
                    self,
                    f"`{name}` (a `{ctor}`) is not closed in a "
                    "`finally` block; an exception on any path leaks "
                    "the descriptor — use `with` or try/finally",
                    node=node,
                )

    def _class_has_closer(self, ctx, node: ast.AST) -> bool:
        current = ctx.parent_map.get(node)
        while current is not None and not isinstance(current, ast.ClassDef):
            current = ctx.parent_map.get(current)
        if current is None:
            return False
        return any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _CLOSER_NAMES
            for stmt in current.body
        )

    @staticmethod
    def _closed_in_finally(scope: ast.AST, name: str) -> bool:
        for candidate in ast.walk(scope):
            if not isinstance(candidate, ast.Try) \
                    or not candidate.finalbody:
                continue
            for stmt in candidate.finalbody:
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _CLOSER_NAMES
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.value.id == name):
                        return True
        return False
