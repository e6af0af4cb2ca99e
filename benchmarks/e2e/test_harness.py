"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``.
The smoke test drives every workload at a tiny size, untraced and
traced, in under a minute; the rest are fast unit tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def out_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.ROOT / ".bench_build" / f"test-{time.time_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_smoke_every_workload_traced(out_dir):
    # Two processes at once. A lone workload runs traced only (in-process);
    # each of several runs untraced and then traced.
    groups = (("paper",), ("serve-day", "api"))
    started = time.perf_counter()
    procs = [subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace", "--out", str(out_dir / str(i)), "--workload", *group],
        stdout=subprocess.PIPE, text=True,
    ) for i, group in enumerate(groups)]
    outputs = [proc.communicate(timeout=180)[0] for proc in procs]
    elapsed = time.perf_counter() - started
    runs = []
    for i, (proc, output) in enumerate(zip(procs, outputs)):
        assert proc.returncode == 0, output[-4000:]
        result = json.loads(output.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs += json.loads((out_dir / str(i) / "results.json").read_text())[
            "runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        ("paper", 1), ("serve-day", 0), ("serve-day", 1), ("api", 0),
        ("api", 1)]
    for record in runs:
        assert record["correct"], record["problems"]
        assert set(record["metrics"]) == {name for name, *_ in run.E2E}
        assert all(value > 0 for value in record["metrics"].values())
    traced = [record for record in runs if record["trace"]]
    for record in traced:
        assert set(record["layers"]) == {n for n, *_ in layers.PER_LAYER}
        # Layer self times never cover more than the traced wall time, so
        # self times plus the unattributed time add up to it.
        assert record["layers"]["proc.unattributed_share"] >= -0.01
        assert record["layers"]["proc.wall_s"] > 0
        trace_dir = Path(record["trace_dir"])
        assert (trace_dir / "layers.json").exists()
        assert (trace_dir / "spans.json").exists()
    by_name = {r["workload"]: r["layers"] for r in traced}
    assert by_name["paper"]["smt.solver.calls"] > 0
    assert by_name["serve-day"]["serve.service.decide_calls"] > 0
    assert by_name["api"]["serve.api.batch_occupancy"] >= 1.0
    assert by_name["api"]["core.predictor.predict_server_calls"] > 0
    assert elapsed < 60.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_benchmark_json_matches_the_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_recorder_self_time_excludes_children():
    recorder = layers.Recorder()
    outer = recorder.name_id("outer", "a")
    inner = recorder.name_id("inner", "b")
    spans, i, first = recorder.enter(outer)
    time.sleep(0.02)
    spans, j, nested_first = recorder.enter(inner)
    time.sleep(0.05)
    recorder.leave(spans, j)
    recorder.leave(spans, i)
    recorder.stop()
    summary = recorder.summary()
    assert first and nested_first
    assert summary["layers"]["a"]["self_s"] == pytest.approx(0.02, abs=0.01)
    assert summary["layers"]["b"]["self_s"] == pytest.approx(0.05, abs=0.01)
    assert set(summary["tree"]) == {"outer", "outer/inner"}
    assert summary["tree"]["outer"][1] >= summary["tree"]["outer/inner"][1]


def test_install_patches_every_import_site_and_uninstall_restores():
    import repro.smt.simulator as simulator_module
    import repro.smt.solver as solver_module

    original = solver_module.solve
    patched = layers.install(layers.Recorder())
    try:
        assert solver_module.solve is not original
        assert simulator_module.solve is solver_module.solve
    finally:
        layers.uninstall(patched)
    assert simulator_module.solve is original
    assert solver_module.solve is original


def test_json_diff_tolerates_rounding_only():
    assert workloads.json_diff({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}) \
        == []
    assert workloads.json_diff({"a": [1.1, "x"]}, {"a": [1.0, "x"]})
    assert workloads.json_diff({"a": [1.0, "y"]}, {"a": [1.0, "x"]})
    assert workloads.json_diff({"a": 1}, {"a": 1, "b": 2})


def test_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert run.verdict(parent, [p * 0.8 for p in parent], "lower",
                       0.1) == "better"
    assert run.verdict(parent, [p * 1.3 for p in parent], "lower",
                       0.1) == "worse"
    assert run.verdict(parent, list(parent), "lower", 0.1) == "within bound"
    noisy = [50.0, 150.0] * 5
    assert run.verdict(noisy, noisy, "higher", 0.1) == "unresolved"
