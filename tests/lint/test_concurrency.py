"""Fixtures for the SMT6xx async-hygiene family.

Single-file fixtures use the ``lint`` fixture (one-module project);
the cross-module cases — the ones the project graph exists for —
use :func:`repro.lint.lint_sources` to lint a small fixture package as
one project.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_sources
from repro.lint.rules.concurrency import (BlockingInCoroutine,
                                          UnawaitedCoroutine)

from .conftest import rule_ids


def _lint_pkg(sources: dict[str, str], rules=None):
    return lint_sources(
        {path: textwrap.dedent(body) for path, body in sources.items()},
        rule_classes=rules,
    )


# ----------------------------------------------------------------------
# SMT601 — blocking reachable from a coroutine

def test_direct_blocking_call_in_coroutine_fails(lint):
    findings = lint("""\
        import time

        async def handler():
            time.sleep(0.1)
    """, rules=[BlockingInCoroutine])
    assert rule_ids(findings) == ["SMT601"]
    assert "time.sleep" in findings[0].message


def test_blocking_call_two_modules_from_async_def_fails():
    # The acceptance fixture: coroutine -> helper module -> blocking
    # call, each hop in a different file.
    findings = _lint_pkg({
        "src/fix/io.py": """\
            import time

            def slow():
                time.sleep(1)
        """,
        "src/fix/mid.py": """\
            from fix.io import slow

            def helper():
                slow()
        """,
        "src/fix/api.py": """\
            from fix.mid import helper

            async def handler():
                helper()
        """,
    }, rules=[BlockingInCoroutine])
    assert rule_ids(findings) == ["SMT601"]
    assert findings[0].path == "src/fix/api.py"
    assert "time.sleep" in findings[0].message


def test_same_helper_from_sync_path_passes():
    findings = _lint_pkg({
        "src/fix/io.py": """\
            import time

            def slow():
                time.sleep(1)
        """,
        "src/fix/cli.py": """\
            from fix.io import slow

            def main():
                slow()
        """,
    }, rules=[BlockingInCoroutine])
    assert findings == []


def test_executor_hop_breaks_the_taint(lint):
    findings = lint("""\
        import asyncio
        import time

        def slow():
            time.sleep(1)

        async def handler():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, slow)
    """, rules=[BlockingInCoroutine])
    assert findings == []


def test_asyncio_sleep_is_not_blocking(lint):
    findings = lint("""\
        import asyncio

        async def handler():
            await asyncio.sleep(0.1)
    """, rules=[BlockingInCoroutine])
    assert findings == []


# ----------------------------------------------------------------------
# SMT602 — dropped coroutine objects

def test_unawaited_coroutine_call_fails(lint):
    findings = lint("""\
        async def work():
            pass

        async def handler():
            work()
    """, rules=[UnawaitedCoroutine])
    assert rule_ids(findings) == ["SMT602"]


def test_awaited_scheduled_returned_and_bound_calls_pass(lint):
    findings = lint("""\
        import asyncio

        async def work():
            pass

        async def handler():
            await work()
            task = asyncio.create_task(work())
            coro = work()
            await coro
            await task

        def factory():
            return work()
    """, rules=[UnawaitedCoroutine])
    assert findings == []


def test_discarded_task_handle_fails(lint):
    findings = lint("""\
        import asyncio

        async def work():
            pass

        class Server:
            def __init__(self, loop):
                self._loop = loop

            def begin(self):
                self._loop.create_task(work())

        async def handler():
            asyncio.ensure_future(work())
    """, rules=[UnawaitedCoroutine])
    assert rule_ids(findings) == ["SMT602", "SMT602"]
    assert all("discards its task handle" in f.message for f in findings)


def test_kept_task_handles_pass(lint):
    findings = lint("""\
        import asyncio

        async def work():
            pass

        class Server:
            def __init__(self, loop):
                self._loop = loop
                self._tasks = set()
                self._drain_task = None

            def begin(self):
                self._drain_task = self._loop.create_task(work())
                self._tasks.add(self._loop.create_task(work()))

        async def handler():
            task = asyncio.create_task(work())
            await asyncio.gather(task, asyncio.ensure_future(work()))
            return asyncio.create_task(work())
    """, rules=[UnawaitedCoroutine])
    assert findings == []


def test_sync_caller_dropping_a_coroutine_fails_cross_module():
    findings = _lint_pkg({
        "src/fix/aio.py": """\
            async def work():
                pass
        """,
        "src/fix/cli.py": """\
            from fix.aio import work

            def main():
                work()
        """,
    }, rules=[UnawaitedCoroutine])
    assert rule_ids(findings) == ["SMT602"]
    assert findings[0].path == "src/fix/cli.py"
