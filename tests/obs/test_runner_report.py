"""End-to-end: a parallel runner invocation emits a consistent report.

Runs the real CLI in a subprocess (2 worker processes, cold cache in a
temp dir) and checks the report's cross-process accounting: worker
snapshots must sum to the merged totals, and the disk cache's
hits + misses must equal its total requests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.catalog import find_spec, match_span_path

REPO = Path(__file__).resolve().parents[2]
IDS = ("fig2", "fig3", "table1")


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("runner_report")
    out = tmp / "report.json"
    # The child is configured by its flags alone: an inherited SMITE_*
    # variable (SMITE_NO_CACHE, SMITE_METRICS_OUT, ...) would change
    # what the report records.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SMITE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *IDS,
         "--fast", "--jobs", "2", "--cache-dir", str(tmp / "cache"),
         "--metrics", "--metrics-out", str(out)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert "top spans" in completed.stdout  # --metrics summary printed
    return json.loads(out.read_text(encoding="utf-8"))


def test_report_identifies_the_run(report):
    assert report["schema"] == 3
    assert report["provenance"]["python"]
    assert "platform" in report["provenance"]
    assert set(report["experiments"]) == set(IDS)
    assert all(elapsed >= 0.0 for elapsed in report["experiments"].values())
    assert report["wall_seconds"] > 0.0
    assert report["metrics"]["gauges"]["runner.jobs"] == 2
    assert report["metrics"]["gauges"]["runner.experiments"] == len(IDS)


def test_workers_partition_the_experiments(report):
    groups = [set(worker["experiments"]) for worker in report["workers"]]
    assert len(groups) == 2  # fig2+fig3 share a family; table1 is alone
    covered = set()
    for group in groups:
        assert not covered & group
        covered |= group
    assert covered == set(IDS)


def test_diskcache_accounting_is_consistent(report):
    """hits + misses == requests, in the merged view and per worker."""
    views = [report["metrics"]] + [w["metrics"] for w in report["workers"]]
    for view in views:
        counters = view["counters"]
        requests = counters.get("smt.diskcache.requests", 0)
        hits = counters.get("smt.diskcache.hits", 0)
        misses = counters.get("smt.diskcache.misses", 0)
        assert requests == hits + misses
    assert report["metrics"]["counters"]["smt.diskcache.requests"] > 0


def test_worker_counters_sum_to_merged_totals(report):
    merged = report["metrics"]["counters"]
    summed: dict[str, int] = {}
    for worker in report["workers"]:
        for name, value in worker["metrics"]["counters"].items():
            summed[name] = summed.get(name, 0) + value
    # The parent process does no solving of its own, so the merge is
    # exactly the workers' contributions.
    assert summed == merged


def test_per_experiment_spans_are_present_and_nested(report):
    spans = report["metrics"]["spans"]
    for experiment_id in IDS:
        assert spans[f"experiment.{experiment_id}"]["count"] == 1
    # fig2 characterizes the workload population inside its span.
    assert "experiment.fig2/characterize_many" in spans


def test_every_reported_name_is_cataloged(report):
    metrics = report["metrics"]
    for kind in ("counter", "gauge", "histogram"):
        for name in metrics[f"{kind}s"]:
            assert find_spec(kind, name) is not None, (kind, name)
    for path in metrics["spans"]:
        assert match_span_path(path), path


def test_solver_histograms_agree_with_solver_counters(report):
    counters = report["metrics"]["counters"]
    histograms = report["metrics"]["histograms"]
    if counters.get("smt.solver.solves"):
        assert histograms["smt.solver.iterations"]["count"] == \
            counters["smt.solver.solves"]
    if counters.get("smt.batch.calls"):
        assert histograms["smt.batch.batch_size"]["count"] == \
            counters["smt.batch.calls"]
        assert histograms["smt.batch.batch_size"]["sum"] == \
            pytest.approx(counters["smt.batch.problems"])
