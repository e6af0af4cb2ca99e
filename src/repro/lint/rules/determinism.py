"""Determinism rules (SMT1xx).

Characterization runs are only comparable — and Eq. 1-3 predictions only
trustworthy — if re-running a model produces bit-identical numbers.
These rules flag the three ways nondeterminism usually leaks into model
code: an unseeded random source, logic keyed to the wall clock, and
iteration over hash-ordered sets. They are scoped (via the
``determinism`` scope in the config) to the model packages; harness code
may legitimately look at the clock.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Rule, register

__all__ = ["UnseededRandom", "WallClockLogic", "SetIterationOrder"]

#: Module-level ``random.*`` functions that draw from the global RNG.
_STDLIB_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "expovariate", "betavariate", "getrandbits", "randbytes",
})

#: Legacy ``numpy.random.*`` functions backed by the global, unseeded state.
_NUMPY_LEGACY_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "exponential", "beta",
    "standard_normal", "seed",
})

#: Dotted-name tails whose call reads the wall clock. ``time.perf_counter``
#: and ``time.monotonic`` are deliberately absent: measuring a duration is
#: fine, branching on the date is not.
_WALL_CLOCK_TAILS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today",
})


def _dotted(node: ast.AST) -> str:
    """The dotted name of a call target (``np.random.rand``), or ''."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expression(node: ast.AST) -> bool:
    """A set display or a ``set()``/``frozenset()`` call."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class UnseededRandom(Rule):
    """Flag random draws whose seed the caller cannot control."""

    id = "SMT101"
    family = "determinism"
    summary = ("unseeded random source (global `random`, legacy "
               "`numpy.random`, or `default_rng()` without a seed)")

    def visit_Call(self, node: ast.Call, ctx) -> None:
        name = _dotted(node.func)
        if not name:
            return
        head, _, tail = name.rpartition(".")
        if head == "random" and tail in _STDLIB_RANDOM_FNS:
            ctx.report(self, f"`{name}()` draws from the global stdlib RNG; "
                             "thread a seeded `random.Random(seed)` through "
                             "instead", node=node)
        elif name == "random.Random" and not node.args and not node.keywords:
            ctx.report(self, "`random.Random()` without a seed is "
                             "nondeterministic; pass an explicit seed",
                       node=node)
        elif head.endswith("random") and "." in head \
                and tail in _NUMPY_LEGACY_FNS:
            ctx.report(self, f"legacy `{name}()` uses numpy's global RNG "
                             "state; use `np.random.default_rng(seed)`",
                       node=node)
        elif tail == "default_rng" and not node.args and not node.keywords:
            ctx.report(self, "`default_rng()` without a seed gives a fresh "
                             "OS-entropy stream; pass the pipeline seed",
                       node=node)


@register
class WallClockLogic(Rule):
    """Flag model logic that reads the wall clock or calendar."""

    id = "SMT102"
    family = "determinism"
    summary = ("wall-clock/calendar read (`time.time`, `datetime.now`, ...) "
               "in model code; `perf_counter` spans are exempt")

    def visit_Call(self, node: ast.Call, ctx) -> None:
        name = _dotted(node.func)
        if not name:
            return
        for tail in _WALL_CLOCK_TAILS:
            if name == tail or name.endswith("." + tail):
                ctx.report(self, f"`{name}()` makes model output depend on "
                                 "the wall clock; inject the timestamp or "
                                 "use a perf_counter span for durations",
                           node=node)
                return


@register
class SetIterationOrder(Rule):
    """Flag iteration whose order depends on hash randomization."""

    id = "SMT103"
    family = "determinism"
    summary = ("iteration over a set (or list(set(...))) leaks hash order "
               "into results; sort first")

    _MESSAGE = ("iterating a set is hash-ordered (nondeterministic for "
                "str keys across runs); use sorted(...) or a dict/list")

    def visit_For(self, node: ast.For, ctx) -> None:
        if _is_set_expression(node.iter):
            ctx.report(self, self._MESSAGE, node=node.iter)

    def visit_comprehension(self, node: ast.comprehension, ctx) -> None:
        if _is_set_expression(node.iter):
            ctx.report(self, self._MESSAGE, node=node.iter)

    def visit_Call(self, node: ast.Call, ctx) -> None:
        # list(set(...)) / tuple(set(...)) / enumerate(set(...)): an
        # order-sensitive materialization. sorted(set(...)) is the fix.
        if not (isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate")):
            return
        if len(node.args) >= 1 and _is_set_expression(node.args[0]):
            ctx.report(self, f"`{node.func.id}(set(...))` materializes hash "
                             "order; use sorted(...)", node=node)
