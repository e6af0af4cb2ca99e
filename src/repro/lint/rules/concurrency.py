"""Async-hygiene rules (SMT6xx).

The serving front-end (``repro.serve.api``) runs on one asyncio event
loop: a single blocking call anywhere in a coroutine's *transitive*
call tree stalls every in-flight request, which surfaces as a tail-
latency cliff rather than a crash. Per-file linting cannot see a
``time.sleep`` three helpers away, so these rules read the phase-1
project graph (``ctx.graph``):

- **SMT601** walks every coroutine's resolved call edges and flags both
  direct blocking primitives in its body and call sites whose (sync)
  callee is blocking-reachable, printing the offending chain. Handing
  the work to ``loop.run_in_executor`` / ``asyncio.to_thread`` passes
  the function as a *value*, so no call edge exists and the taint
  breaks exactly where the fix goes.
- **SMT602** flags calls that resolve only to coroutine functions but
  are neither awaited, wrapped in an asyncio scheduling helper
  (``create_task``/``gather``/...), returned, nor bound to a name — the
  coroutine object is created and silently dropped, so the code never
  runs. It also flags a ``create_task``/``ensure_future`` call used as
  a bare statement: the loop keeps only a weak reference to the task,
  so a dropped handle can be collected mid-flight, and nothing can
  await or cancel it at shutdown.
"""

from __future__ import annotations

from repro.lint.registry import Rule, register

__all__ = ["BlockingInCoroutine", "UnawaitedCoroutine"]

#: Calls returning a task whose handle must be kept (SMT602).
_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


@register
class BlockingInCoroutine(Rule):
    """Flag blocking work on the event loop, however many hops away."""

    id = "SMT601"
    family = "concurrency"
    summary = ("blocking call (time.sleep, subprocess, socket/file IO) "
               "reachable from a coroutine without an executor hop")

    def check_module(self, ctx) -> None:
        graph = ctx.graph
        mod = graph.module_for(ctx.relpath)
        if mod is None:
            return
        for fn in mod.functions.values():
            if not fn.is_async:
                continue
            for lineno, col, raw in fn.blocking:
                ctx.report(
                    self,
                    f"blocking call `{raw}` in coroutine `{fn.local}` "
                    "stalls the event loop; hop through "
                    "`loop.run_in_executor(...)` or use an async "
                    "equivalent",
                    line=lineno, col=col,
                )
            for site in fn.calls:
                hit = next(
                    (c for c in site.callees
                     if c in graph.blocking_next
                     and not graph.functions[c].is_async),
                    None,
                )
                if hit is None:
                    continue
                chain = graph.blocking_chain(hit)
                ctx.report(
                    self,
                    f"coroutine `{fn.local}` reaches blocking work via "
                    f"`{site.raw}` ({chain}); hop through "
                    "`loop.run_in_executor(...)` before the sync call",
                    line=site.lineno, col=site.col,
                )


@register
class UnawaitedCoroutine(Rule):
    """Flag coroutine calls whose result object is silently dropped."""

    id = "SMT602"
    family = "concurrency"
    summary = ("call to an async def is neither awaited, scheduled "
               "(create_task/gather/...), returned, nor bound — it "
               "never runs; or a create_task handle is discarded")

    def check_module(self, ctx) -> None:
        graph = ctx.graph
        mod = graph.module_for(ctx.relpath)
        if mod is None:
            return
        for fn in mod.functions.values():
            for site in fn.calls:
                if site.discarded and site.raw.rpartition(".")[2] \
                        in _TASK_SPAWNERS:
                    ctx.report(
                        self,
                        f"`{site.raw}(...)` discards its task handle — "
                        "the loop holds tasks only weakly and nothing can "
                        "await or cancel it at shutdown; keep the task",
                        line=site.lineno, col=site.col,
                    )
                    continue
                if site.awaited or site.wrapped or site.returned \
                        or site.assigned:
                    continue
                targets = [graph.functions[c] for c in site.callees
                           if c in graph.functions]
                if not targets or not all(t.is_async for t in targets):
                    continue
                ctx.report(
                    self,
                    f"`{site.raw}(...)` creates a coroutine object and "
                    "drops it — the body never executes; await it or "
                    "schedule it with `asyncio.create_task(...)`",
                    line=site.lineno, col=site.col,
                )

