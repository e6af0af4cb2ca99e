"""Tests for the one-off CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import build_report, write_report
from tests.obs.trace_schema import validate_chrome_trace


class TestWorkloads:
    def test_lists_everything(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "429.mcf" in out
        assert "web-search" in out


class TestCharacterize:
    def test_prints_all_dimensions(self, capsys):
        assert main(["characterize", "444.namd"]) == 0
        out = capsys.readouterr().out
        for dim in ("FP_MUL", "FP_ADD", "FP_SHF", "INT_ADD", "L1", "L2",
                    "L3"):
            assert dim in out

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["characterize", "no-such-app"]) == 1
        assert "error" in capsys.readouterr().err

    def test_machine_choice(self, capsys):
        assert main(["characterize", "429.mcf",
                     "--machine", "sandy-bridge-en"]) == 0
        assert "sandy-bridge-en" in capsys.readouterr().out


class TestPredict:
    def test_prediction_output(self, capsys):
        assert main(["predict", "429.mcf", "470.lbm"]) == 0
        out = capsys.readouterr().out
        assert "predicted degradation" in out

    def test_verify_adds_measurement(self, capsys):
        assert main(["predict", "429.mcf", "470.lbm", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "measured degradation" in out
        assert "absolute error" in out

    def test_cmp_mode(self, capsys):
        assert main(["predict", "429.mcf", "470.lbm", "--mode", "cmp"]) == 0
        assert "CMP" in capsys.readouterr().out


class TestServe:
    @pytest.mark.slow
    def test_smoke_diurnal_fast(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SMITE_CACHE_DIR", str(tmp_path / "cache"))
        out_path = tmp_path / "serve_metrics.json"
        trace_path = tmp_path / "serve.trace.json"
        assert main(["serve", "--fast", "--duration", "14400",
                     "--rate", "0.02", "--seed", "3", "--servers", "2",
                     "--metrics-out", str(out_path),
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "diurnal trace" in out
        assert "windowed SLO series" in out
        assert "mean utilization gain" in out
        assert "prediction audit" in out
        assert out_path.exists()

        # The recorded timeline is a loadable Chrome trace-event file
        # carrying the serving engine's simulated-clock markers.
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        validate_chrome_trace(doc)
        names = {event["name"] for event in doc["traceEvents"]}
        assert "serve.decision" in names
        assert "serve.engine.running" in names
        assert "serve.replay" in names

        # The run report carries the audit section, and `obs view`
        # round-trips it including the per-pool residual table.
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["schema"] == 3
        assert report["audit"]["samples"] > 0
        assert report["audit"]["pools"]
        assert main(["obs", "view", str(out_path)]) == 0
        view = capsys.readouterr().out
        assert "prediction audit" in view
        assert "per-pool residuals" in view
        for pool, stats in report["audit"]["pools"].items():
            assert pool in view
            assert f"{stats['mean_abs']:.4f}" in view

        # `obs trace` summarizes the same file as text.
        assert main(["obs", "trace", str(trace_path), "--top", "3"]) == 0
        assert "longest events" in capsys.readouterr().out

    @pytest.mark.slow
    def test_smoke_adaptive_serve(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SMITE_CACHE_DIR", str(tmp_path / "cache"))
        out_path = tmp_path / "adapt_metrics.json"
        assert main(["serve", "--fast", "--trace", "poisson",
                     "--duration", "7200", "--rate", "0.02",
                     "--seed", "3", "--servers", "2", "--adapt",
                     "--drift-bound", "0.5", "--refit-window", "64",
                     "--metrics-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "adaptation: serving model v" in out
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["adapt"]["model_version"] >= 0
        assert report["adapt"]["origin"] in ("static", "rls", "batch")
        assert main(["obs", "view", str(out_path)]) == 0
        assert "adaptation: serving model v" in capsys.readouterr().out

    def test_adapt_requires_smite_policy(self, capsys):
        assert main(["serve", "--policy", "baseline", "--adapt"]) == 1
        assert "requires --policy smite" in capsys.readouterr().err

    def test_parser_rejects_engine(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--engine", "vector"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _report_with(tmp_path, name, *, counters=None, audit=None,
                 wall_seconds=1.0):
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    for counter_name, value in (counters or {}).items():
        registry.counter(counter_name).inc(value)
    report = build_report(command=["unit-test", name],
                          wall_seconds=wall_seconds,
                          metrics=registry.snapshot(), audit=audit)
    return write_report(tmp_path / f"{name}.json", report)


class TestServeApi:
    def test_port_with_shards_rejected(self, capsys):
        assert main(["serve-api", "--policy", "baseline",
                     "--shards", "2", "--port", "7000"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parser_rejects_adapt(self, capsys):
        # The API path observes no measured degradations, so it has no
        # adaptation flags: each is an unknown option.
        for flag in (["--adapt"], ["--drift-bound", "0.05"],
                     ["--refit-window", "256"]):
            with pytest.raises(SystemExit) as exc:
                main(["serve-api", "--policy", "smite", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serves_over_a_real_socket(self, tmp_path):
        import os
        import re
        import subprocess
        import sys

        import repro
        from repro.serve.api import ApiClient

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        out_path = tmp_path / "api_metrics.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-api",
             "--policy", "baseline", "--max-requests", "3",
             "--metrics-out", str(out_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.match(r"listening on (.+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            with ApiClient(host, port) as client:
                assert client.ping()["pong"] is True
                placed = client.place("web-search", "470.lbm", 4)
                assert placed["max_safe_instances"] == 0
                predicted = client.predict("web-search", "470.lbm", 2)
                assert predicted["predicted_degradation"] is None
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "server drained after 3 requests" in out
        assert "metrics report written" in out
        report = json.loads(out_path.read_text(encoding="utf-8"))
        counters = report["metrics"]["counters"]
        assert counters["serve.api.requests"] == 3


class TestObs:
    def test_view_renders_a_report(self, capsys, tmp_path):
        audit = {
            "samples": 2,
            "overall": {"count": 2, "sum_signed": 0.02, "sum_abs": 0.06,
                        "max_abs": 0.05, "mean_abs": 0.03,
                        "mean_signed": 0.01},
            "pools": {"web-search": {"count": 2, "sum_signed": 0.02,
                                     "sum_abs": 0.06, "max_abs": 0.05,
                                     "mean_abs": 0.03,
                                     "mean_signed": 0.01}},
            "pairs": {},
        }
        path = _report_with(tmp_path, "run",
                            counters={"serve.engine.arrivals": 7},
                            audit=audit)
        assert main(["obs", "view", str(path)]) == 0
        out = capsys.readouterr().out
        assert "command: unit-test run" in out
        assert "serve.engine.arrivals" in out
        assert "prediction audit: 2 comparisons" in out
        assert "web-search" in out

    def test_view_renders_adapt_section(self, capsys, tmp_path):
        report = build_report(command=["unit-test", "adapt"], metrics={},
                              adapt={"model_version": 2,
                                     "model_hash": "abc123",
                                     "origin": "rls",
                                     "last_swap_epoch_s": 1_200.0,
                                     "swaps": 2})
        path = write_report(tmp_path / "adapt.json", report)
        assert main(["obs", "view", str(path)]) == 0
        out = capsys.readouterr().out
        assert "adaptation: serving model v2 (rls, hash abc123)" in out
        assert "last swap at t=1200s" in out

    def test_diff_attributes_counter_movement(self, capsys, tmp_path):
        before = _report_with(tmp_path, "before",
                              counters={"serve.engine.arrivals": 10})
        after = _report_with(tmp_path, "after",
                             counters={"serve.engine.arrivals": 30},
                             wall_seconds=2.0)
        assert main(["obs", "diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "serve.engine.arrivals" in out
        assert "10" in out and "30" in out
        assert "wall time" in out

    def test_diff_of_identical_reports_says_so(self, capsys, tmp_path):
        path = _report_with(tmp_path, "same", wall_seconds=1.0)
        assert main(["obs", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "x1.00" in out  # wall ratio of a self-diff

    def test_trace_summarizes_a_file(self, capsys, tmp_path):
        doc = {"traceEvents": [
            {"name": "serve.replay", "ph": "B", "ts": 0.0, "pid": 1,
             "tid": 1},
            {"name": "serve.replay", "ph": "E", "ts": 2000.0, "pid": 1,
             "tid": 1},
        ], "otherData": {"dropped": 0}}
        path = tmp_path / "t.trace.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["obs", "trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve.replay" in out
        assert "2.000 ms" in out

    def test_missing_report_fails_cleanly(self, capsys, tmp_path):
        assert main(["obs", "view", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_future_schema_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 99}), encoding="utf-8")
        assert main(["obs", "view", str(path)]) == 1
        assert "unsupported run-report schema" in capsys.readouterr().err

    def test_non_json_trace_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "broken.trace.json"
        path.write_text("not json", encoding="utf-8")
        assert main(["obs", "trace", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestSafeBatch:
    @pytest.mark.slow
    def test_reports_counts(self, capsys):
        assert main(["safe-batch", "web-search", "--qos", "0.85"]) == 0
        out = capsys.readouterr().out
        assert "safe instances" in out
        assert "85% QoS target" in out

    def test_rejects_non_latency_app(self, capsys):
        assert main(["safe-batch", "429.mcf"]) == 1
        assert "latency-sensitive" in capsys.readouterr().err
