"""Fixtures for the SMT7xx process/thread-safety family."""

from __future__ import annotations

import textwrap

from repro.lint import lint_sources
from repro.lint.rules.procsafety import (ResourceLifecycle,
                                         UnpicklableSubmit,
                                         WorkerStateLoss)

from .conftest import rule_ids


def _lint_pkg(sources: dict[str, str], rules=None):
    return lint_sources(
        {path: textwrap.dedent(body) for path, body in sources.items()},
        rule_classes=rules,
    )


# ----------------------------------------------------------------------
# SMT701 — worker-side state that never folds back

def test_obs_mutation_in_worker_without_foldback_fails(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor
        from repro.obs import counter

        def worker(n):
            counter("serve.worker.events").inc(n)

        def fan_out(items):
            with ProcessPoolExecutor() as ex:
                for item in items:
                    ex.submit(worker, item)
    """, rules=[WorkerStateLoss])
    assert rule_ids(findings) == ["SMT701"]
    assert "snapshot" in findings[0].message


def test_worker_that_snapshots_passes(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor
        from repro.obs import counter, snapshot

        def worker(n):
            counter("serve.worker.events").inc(n)
            return snapshot()

        def fan_out(items):
            with ProcessPoolExecutor() as ex:
                for item in items:
                    ex.submit(worker, item)
    """, rules=[WorkerStateLoss])
    assert findings == []


def test_unmerged_registry_mutation_in_fixture_shard_worker_fails():
    # The acceptance fixture: the mutation and the fan-out live in
    # different modules; only the project graph connects them.
    findings = _lint_pkg({
        "src/fix/metrics.py": """\
            from repro.obs import counter

            def record(n):
                counter("fix.events").inc(n)
        """,
        "src/fix/shard.py": """\
            from concurrent.futures import ProcessPoolExecutor

            from fix.metrics import record

            def worker(n):
                record(n)

            def fan_out(items):
                with ProcessPoolExecutor() as ex:
                    for item in items:
                        ex.submit(worker, item)
        """,
    }, rules=[WorkerStateLoss])
    assert rule_ids(findings) == ["SMT701"]
    assert findings[0].path == "src/fix/metrics.py"


def test_module_global_mutation_in_worker_fails(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor

        RESULTS = {}

        def worker(n):
            RESULTS[n] = n * 2

        def fan_out(items):
            with ProcessPoolExecutor() as ex:
                for item in items:
                    ex.submit(worker, item)
    """, rules=[WorkerStateLoss])
    assert rule_ids(findings) == ["SMT701"]
    assert "RESULTS" in findings[0].message


def test_same_mutation_outside_any_worker_passes(lint):
    findings = lint("""\
        RESULTS = {}

        def record(n):
            RESULTS[n] = n * 2
    """, rules=[WorkerStateLoss])
    assert findings == []


# ----------------------------------------------------------------------
# SMT702 — unpicklable submit targets

def test_lambda_submit_fails(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(items):
            with ProcessPoolExecutor() as ex:
                for item in items:
                    ex.submit(lambda: item * 2)
    """, rules=[UnpicklableSubmit])
    assert rule_ids(findings) == ["SMT702"]
    assert "lambda" in findings[0].message


def test_nested_function_submit_fails(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(items):
            def work(item):
                return item * 2

            with ProcessPoolExecutor() as ex:
                for item in items:
                    ex.submit(work, item)
    """, rules=[UnpicklableSubmit])
    assert rule_ids(findings) == ["SMT702"]
    assert "closure" in findings[0].message


def test_module_level_target_passes(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor

        def work(item):
            return item * 2

        def fan_out(items):
            with ProcessPoolExecutor() as ex:
                for item in items:
                    ex.submit(work, item)
    """, rules=[UnpicklableSubmit])
    assert findings == []


def test_thread_pool_lambda_is_fine(lint):
    # Threads share the heap; no pickle boundary to cross.
    findings = lint("""\
        from concurrent.futures import ThreadPoolExecutor

        def fan_out(items):
            with ThreadPoolExecutor() as ex:
                for item in items:
                    ex.submit(lambda: item * 2)
    """, rules=[UnpicklableSubmit])
    assert findings == []


# ----------------------------------------------------------------------
# SMT703 — resource lifecycle

def test_pipe_without_finally_close_fails(lint):
    findings = lint("""\
        import multiprocessing

        def spawn():
            parent, child = multiprocessing.Pipe()
            return parent.recv()
    """, rules=[ResourceLifecycle])
    assert rule_ids(findings) == ["SMT703", "SMT703"]


def test_pipe_closed_in_finally_passes(lint):
    findings = lint("""\
        import multiprocessing

        def spawn():
            parent, child = multiprocessing.Pipe()
            try:
                return parent.recv()
            finally:
                parent.close()
                child.close()
    """, rules=[ResourceLifecycle])
    assert findings == []


def test_executor_in_with_block_passes(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor

        def fan_out():
            with ProcessPoolExecutor() as ex:
                return ex.submit(print).result()
    """, rules=[ResourceLifecycle])
    assert findings == []


def test_bare_executor_assignment_fails(lint):
    findings = lint("""\
        from concurrent.futures import ProcessPoolExecutor

        def fan_out():
            ex = ProcessPoolExecutor()
            return ex
    """, rules=[ResourceLifecycle])
    assert rule_ids(findings) == ["SMT703"]


def test_socket_on_self_with_closer_method_passes(lint):
    findings = lint("""\
        import socket

        class Client:
            def __init__(self, host, port):
                self._sock = socket.create_connection((host, port))

            def close(self):
                self._sock.close()
    """, rules=[ResourceLifecycle])
    assert findings == []


def test_socket_on_self_without_closer_fails(lint):
    findings = lint("""\
        import socket

        class Client:
            def __init__(self, host, port):
                self._sock = socket.create_connection((host, port))
    """, rules=[ResourceLifecycle])
    assert rule_ids(findings) == ["SMT703"]


def test_returned_resource_transfers_ownership(lint):
    findings = lint("""\
        import socket

        def connect(host, port):
            return socket.create_connection((host, port))
    """, rules=[ResourceLifecycle])
    assert findings == []
