"""Unit tests for the phase-1 project graph (repro.lint.graph).

Each test builds a small in-memory project, scans it, and asserts on
the linked graph: import/call resolution (aliased, relative, star,
cyclic), class-method dispatch through bases and subclass overrides,
and the blocking-reachability closure the SMT6xx rules consume.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.graph import build_graph, module_name_for, scan_module


def _graph(sources: dict[str, str]):
    modules = {}
    for relpath, body in sources.items():
        tree = ast.parse(textwrap.dedent(body), filename=relpath)
        modules[relpath] = scan_module(relpath, tree)
    return build_graph(modules)


# ----------------------------------------------------------------------
# Naming

def test_module_names_strip_src_and_init():
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for("src/repro/smt/batch.py") == "repro.smt.batch"
    assert module_name_for("benchmarks/bench_ablations.py") \
        == "benchmarks.bench_ablations"


# ----------------------------------------------------------------------
# Resolution

def test_aliased_import_resolves_to_project_function():
    g = _graph({
        "src/pkg/util.py": """\
            def helper():
                pass
        """,
        "src/pkg/main.py": """\
            import pkg.util as u

            def run():
                u.helper()
        """,
    })
    (site,) = [s for s in g.functions["pkg.main:run"].calls]
    assert site.callees == ("pkg.util:helper",)


def test_from_import_alias_and_relative_import_resolve():
    g = _graph({
        "src/pkg/__init__.py": "",
        "src/pkg/util.py": """\
            def helper():
                pass
        """,
        "src/pkg/a.py": """\
            from pkg.util import helper as h

            def run_a():
                h()
        """,
        "src/pkg/b.py": """\
            from . import util

            def run_b():
                util.helper()
        """,
    })
    assert g.functions["pkg.a:run_a"].calls[0].callees \
        == ("pkg.util:helper",)
    assert g.functions["pkg.b:run_b"].calls[0].callees \
        == ("pkg.util:helper",)


def test_star_import_resolves_through_the_source_module():
    g = _graph({
        "src/pkg/util.py": """\
            def helper():
                pass
        """,
        "src/pkg/main.py": """\
            from pkg.util import *

            def run():
                helper()
        """,
    })
    assert g.functions["pkg.main:run"].calls[0].callees \
        == ("pkg.util:helper",)


def test_import_cycle_terminates_and_resolves():
    g = _graph({
        "src/pkg/a.py": """\
            from pkg.b import g

            def f():
                g()
        """,
        "src/pkg/b.py": """\
            from pkg.a import f

            def g():
                f()
        """,
    })
    assert g.functions["pkg.a:f"].calls[0].callees == ("pkg.b:g",)
    assert g.functions["pkg.b:g"].calls[0].callees == ("pkg.a:f",)


def test_reexport_chain_resolves_through_intermediate_module():
    g = _graph({
        "src/pkg/impl.py": """\
            def real():
                pass
        """,
        "src/pkg/api.py": """\
            from pkg.impl import real
        """,
        "src/pkg/main.py": """\
            from pkg.api import real

            def run():
                real()
        """,
    })
    assert g.functions["pkg.main:run"].calls[0].callees \
        == ("pkg.impl:real",)


def test_method_dispatch_includes_base_and_subclass_overrides():
    g = _graph({
        "src/pkg/base.py": """\
            class Decider:
                def decide(self):
                    pass
        """,
        "src/pkg/impl.py": """\
            from pkg.base import Decider

            class Service(Decider):
                def decide(self):
                    pass
        """,
        "src/pkg/use.py": """\
            from pkg.base import Decider

            class Holder:
                def __init__(self, decider: Decider):
                    self.decider = decider

                def go(self):
                    self.decider.decide()
        """,
    })
    (_, go_site) = None, g.functions["pkg.use:Holder.go"].calls[0]
    # Dynamic dispatch: the annotation names the base, the override set
    # brings in every project subclass.
    assert set(go_site.callees) == {"pkg.base:Decider.decide",
                                    "pkg.impl:Service.decide"}


def test_local_alias_of_self_attribute_chain_resolves():
    g = _graph({
        "src/pkg/sim.py": """\
            class Sim:
                def prefetch(self):
                    pass
        """,
        "src/pkg/pred.py": """\
            from pkg.sim import Sim

            class Predictor:
                def __init__(self, simulator: Sim):
                    self.simulator = simulator
        """,
        "src/pkg/svc.py": """\
            from pkg.pred import Predictor

            class Service:
                def __init__(self, predictor: Predictor):
                    self.predictor = predictor

                def warm(self):
                    sim = self.predictor.simulator
                    sim.prefetch()
        """,
    })
    calls = g.functions["pkg.svc:Service.warm"].calls
    (site,) = [s for s in calls if s.raw == "sim.prefetch"]
    assert site.callees == ("pkg.sim:Sim.prefetch",)


# ----------------------------------------------------------------------
# Closures

def test_async_taint_crosses_modules_and_stops_at_executor_hop():
    g = _graph({
        "src/pkg/io.py": """\
            import time

            def slow():
                time.sleep(1)
        """,
        "src/pkg/mid.py": """\
            from pkg.io import slow

            def helper():
                slow()
        """,
        "src/pkg/api.py": """\
            import asyncio
            from pkg.mid import helper

            async def handler():
                helper()

            async def safe_handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, helper)
        """,
    })
    # The coroutine's call edge crosses into mid.py, whose helper
    # reaches io.py's primitive: the path SMT601 walks.
    (site,) = g.functions["pkg.api:handler"].calls
    assert site.callees == ("pkg.mid:helper",)
    assert "pkg.mid:helper" in g.blocking_next
    # The blocking chain is renderable from the tainted entry edge.
    assert "time.sleep" in g.blocking_chain("pkg.mid:helper")
    # safe_handler passes helper as a value — no call edge, and the
    # handler itself never reaches a blocking callee.
    safe = g.functions["pkg.api:safe_handler"]
    for site in safe.calls:
        assert all(c not in g.blocking_next for c in site.callees)
