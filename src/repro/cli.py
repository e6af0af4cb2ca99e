"""Command-line interface for one-off predictions and characterizations.

A thin operational wrapper over the library for quick questions:

    python -m repro.cli characterize 444.namd
    python -m repro.cli predict 444.namd 470.lbm --mode smt
    python -m repro.cli safe-batch web-search --qos 0.9
    python -m repro.cli serve --trace diurnal --policy smite --fast
    python -m repro.cli serve-api --policy baseline --port 7077
    python -m repro.cli workloads
    python -m repro.cli obs view run.json
    python -m repro.cli obs diff before.json after.json
    python -m repro.cli obs trace t.trace.json --top 15
    python -m repro.cli obs top serve.telemetry.jsonl --once

The predictor is trained on the machine-appropriate SPEC half on first
use (even-numbered for Ivy Bridge pair predictions, odd-numbered for
Sandy Bridge-EN server questions, matching the paper's splits).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import time
from pathlib import Path

from repro.adapt import (
    AdaptationController,
    DriftPolicy,
    ModelRegistry,
    OnlineRefitter,
)
from repro.analysis.tables import format_table
from repro.core.predictor import SMiTe
from repro.errors import ReproError
from repro.obs import PredictionAudit, snapshot
from repro.obs import timeseries as obs_timeseries
from repro.obs import trace as obs_trace
from repro.obs.alerts import AlertEngine, default_rules, render_alerts
from repro.obs.diffs import render_diff
from repro.obs.report import (
    build_report,
    env_metrics_path,
    load_report,
    maybe_write_env_report,
    recording,
    render_adapt,
    render_audit,
    render_report,
    write_report,
)
from repro.scheduler.qos import QosTarget, largest_safe_count
from repro.scheduler.scaleout import fit_tail_model
from repro.serve import (
    ApiServer,
    BaselineDecider,
    PredictionService,
    RandomDecider,
    ServingEngine,
    WindowedSlo,
    diurnal_trace,
    poisson_trace,
    run_api_shards,
)
from repro.smt.diskcache import default_cache
from repro.smt.params import IVY_BRIDGE, MACHINES, SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import CLOUDSUITE, cloudsuite_apps
from repro.workloads.insights import classify
from repro.workloads.registry import all_profiles, get_profile
from repro.workloads.spec import spec_even, spec_odd

__all__ = ["main"]


def _machine(name: str):
    try:
        return MACHINES[name]
    except KeyError:
        raise ReproError(
            f"unknown machine {name!r}; known: {', '.join(MACHINES)}"
        ) from None


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        (p.name, p.suite.value, classify(p).value,
         f"{p.total_footprint_bytes / (1024 * 1024):.1f} MB"
         if p.strata else "-",
         p.mlp, p.dependency_factor)
        for p in all_profiles()
    ]
    print(format_table(
        ("workload", "suite", "class", "footprint", "mlp", "dependency"),
        rows,
    ))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    simulator = Simulator(_machine(args.machine))
    predictor = SMiTe(simulator)
    profile = get_profile(args.workload)
    char = predictor.characterization(profile, mode=args.mode)
    rows = [
        (d.name, char.sensitivity[d], char.contentiousness[d])
        for d in char.dimensions
    ]
    print(format_table(
        ("dimension", "sensitivity", "contentiousness"), rows,
        title=f"{profile.name} on {args.machine} ({args.mode.upper()})",
    ))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    simulator = Simulator(_machine(args.machine))
    predictor = SMiTe(simulator).fit(spec_even(), mode=args.mode)
    victim = get_profile(args.victim)
    aggressor = get_profile(args.aggressor)
    predicted = predictor.predict(victim, aggressor)
    print(f"{victim.name} co-located with {aggressor.name} "
          f"({args.mode.upper()}, {args.machine}):")
    print(f"  predicted degradation: {predicted:.2%}")
    if args.verify:
        measured = simulator.measure_pair(victim, aggressor,
                                          args.mode).degradation_a
        print(f"  measured degradation:  {measured:.2%}")
        print(f"  absolute error:        {abs(predicted - measured):.2%}")
    return 0


def _cmd_safe_batch(args: argparse.Namespace) -> int:
    if args.latency_app not in CLOUDSUITE:
        raise ReproError(
            f"{args.latency_app!r} is not a latency-sensitive app; "
            f"known: {', '.join(CLOUDSUITE)}"
        )
    simulator = Simulator(SANDY_BRIDGE_EN)
    predictor = SMiTe(simulator).fit(spec_odd(), mode="smt")
    predictor.fit_server(spec_odd(), instance_counts=(1, 2, 4, 6))
    app = CLOUDSUITE[args.latency_app]
    target = QosTarget.average(args.qos)
    budget = target.degradation_budget()
    rows = []
    for batch in spec_even():
        best, predicted_best = largest_safe_count(
            lambda k: predictor.predict_server(app.profile, batch,
                                               instances=k),
            budget, simulator.machine.cores,
        )
        rows.append((batch.name, best, predicted_best))
    rows.sort(key=lambda r: (-r[1], r[2]))
    print(format_table(
        ("batch candidate", "safe instances", "predicted degradation"),
        rows,
        title=f"{app.name} at a {args.qos:.0%} QoS target "
              f"(budget {budget:.1%})",
    ))
    return 0


def _parse_qos(spec: str) -> QosTarget:
    """Parse ``--qos``: a bare level (average) or ``metric:level``."""
    metric, _, level_text = spec.rpartition(":")
    metric = metric or "average"
    try:
        level = float(level_text)
    except ValueError:
        raise ReproError(f"bad QoS level in {spec!r}") from None
    if metric == "average":
        return QosTarget.average(level)
    if metric == "tail":
        return QosTarget.tail(level)
    raise ReproError(
        f"unknown QoS metric {metric!r}; use average:L or tail:L"
    )


def _fit_smite(args: argparse.Namespace):
    """The fitted model both serving commands decide with.

    Trains SMiTe on the odd SPEC half (a subset under ``--fast``), parses
    ``--qos``, and for a tail target fits one latency model per served
    CloudSuite app. Returns ``(predictor, target, apps, tail_models)``.
    """
    simulator = Simulator(SANDY_BRIDGE_EN, disk_cache=default_cache())
    training = spec_odd()[:8] if args.fast else spec_odd()
    counts = (1, 3, 6) if args.fast else (1, 2, 4, 6)
    predictor = SMiTe(simulator).fit(training, mode="smt")
    predictor.fit_server(training, instance_counts=counts)
    target = _parse_qos(args.qos)
    apps = cloudsuite_apps()[:2] if args.fast else cloudsuite_apps()
    tail_models = None
    if target.metric.value == "tail_latency":
        tail_models = {
            app.name: fit_tail_model(simulator, predictor, app,
                                     des_jobs=10_000 if args.fast
                                     else 60_000)
            for app in apps
        }
    return predictor, target, apps, tail_models


def _decider(args: argparse.Namespace, fitted=None):
    """The ``--policy`` decider; only ``smite`` needs the :func:`_fit_smite`
    model, which is fitted here unless the caller passes it."""
    if args.policy == "random":
        return RandomDecider(seed=args.seed + 1)
    if args.policy == "baseline":
        return BaselineDecider()
    predictor, target, _apps, tail_models = fitted or _fit_smite(args)
    return PredictionService(predictor, target, tail_models=tail_models)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.adapt and args.policy != "smite":
        raise ReproError("--adapt recalibrates the SMiTe regression; it "
                         "requires --policy smite")
    fitted = _fit_smite(args)
    predictor, target, apps, tail_models = fitted
    pool = spec_even()[:6] if args.fast else spec_even()

    generate = diurnal_trace if args.trace == "diurnal" else poisson_trace
    rate_kw = ("mean_rate_per_s" if args.trace == "diurnal"
               else "rate_per_s")
    trace = generate(pool, horizon_s=args.duration, seed=args.seed,
                     **{rate_kw: args.rate})
    decider = _decider(args, fitted)

    audit = PredictionAudit()
    alerts = AlertEngine(default_rules(drift_bound=args.drift_bound))
    slo = WindowedSlo(args.window, target, tail_models=tail_models,
                      audit=audit, alerts=alerts)
    registry = None
    controller = None
    if args.adapt:
        refitter = OnlineRefitter(predictor, window=args.refit_window)
        registry = ModelRegistry(decider, predictor)
        controller = AdaptationController(
            refitter, registry, slo,
            policy=DriftPolicy(drift_bound=args.drift_bound),
        )
    engine = ServingEngine(
        predictor.simulator, apps, decider,
        servers_per_app=args.servers, epoch_s=args.epoch,
        window_s=args.window, slo=slo, audit=audit,
        adaptation=controller,
    )
    outcome = engine.replay(trace, shards=args.shards, jobs=args.jobs)

    print(f"{args.trace} trace, {outcome.arrivals} arrivals over "
          f"{trace.horizon_s / 3600:.1f} h, policy {outcome.policy}, "
          f"QoS {args.qos}")
    print(f"  placed: {outcome.colocated_placed} co-located, "
          f"{outcome.baseline_placed} baseline ({outcome.shed} shed), "
          f"{outcome.still_placed} still running at the horizon")
    metrics = snapshot()
    hits = metrics["counters"].get("serve.service.cache_hits", 0)
    misses = metrics["counters"].get("serve.service.cache_misses", 0)
    if hits + misses:
        print(f"  prediction LRU: {hits}/{hits + misses} hits "
              f"({hits / (hits + misses):.1%})")
    rows = [
        (w.index, w.samples, f"{w.mean_utilization_gain:.3f}",
         w.violations.colocated_servers, w.violations.violated_servers,
         f"{w.violations.rate:.3f}")
        for w in outcome.windows
    ]
    print(format_table(
        ("window", "samples", "util gain", "colocated", "violated",
         "violation rate"),
        rows,
        title=f"windowed SLO series ({args.window:.0f}s windows)",
    ))
    print(f"  mean utilization gain {outcome.mean_utilization_gain:.3f}, "
          f"mean violation rate {outcome.mean_violation_rate:.3f}")
    if audit.samples:
        print()
        print(render_audit(audit.snapshot()))
    if registry is not None:
        print("  " + render_adapt(registry.snapshot()))
    if alerts.events:
        print()
        print(render_alerts(alerts.snapshot()))
    if args.metrics_out:
        path = write_report(args.metrics_out, build_report(
            command=["repro.cli", "serve"], metrics=metrics,
            audit=audit.snapshot() if audit.samples else None,
            adapt=registry.snapshot() if registry is not None else None,
            alerts=alerts.snapshot(),
        ))
        print(f"  metrics report written to {path}")
    return 0


def _cmd_serve_api(args: argparse.Namespace) -> int:
    if args.shards > 1 and args.port != 0:
        raise ReproError(
            "--port only applies to the in-process server; sharded "
            "workers each listen on an ephemeral port (printed at start)"
        )
    decider = _decider(args)
    options = dict(
        max_batch=args.max_batch,
        queue_bound=args.queue_bound,
        batch_window_s=args.batch_window,
        retry_after_ms=args.retry_after,
        max_requests=args.max_requests,
    )
    drained = True
    if args.shards > 1:
        def _announce(addresses: list[tuple[str, int]]) -> None:
            for host, port in addresses:
                print(f"listening on {host}:{port}", flush=True)

        try:
            summaries = run_api_shards(
                decider, shards=args.shards, jobs=args.jobs,
                host=args.host, ready_callback=_announce, **options,
            )
        except KeyboardInterrupt:
            drained = False
            summaries = []
        served = sum(s["requests"] for s in summaries)
        if drained:
            print(f"{len(summaries)} shard workers drained "
                  f"after {served} requests")
    else:
        server = ApiServer(decider, host=args.host, port=args.port,
                           **options)

        async def _run() -> None:
            host, port = await server.start()
            print(f"listening on {host}:{port}", flush=True)
            await server.serve_until_stopped()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            drained = False
        if drained:
            print(f"server drained after {server.requests_served} "
                  f"requests")
    metrics = snapshot()
    counters = metrics["counters"]
    requests = counters.get("serve.api.requests", 0)
    batches = counters.get("serve.api.batches", 0)
    sheds = counters.get("serve.api.sheds", 0)
    if batches:
        print(f"  {requests} requests answered in {batches} "
              f"micro-batches, {sheds} shed to the baseline")
    if args.metrics_out:
        path = write_report(args.metrics_out, build_report(
            command=["repro.cli", "serve-api"], metrics=metrics,
        ))
        print(f"  metrics report written to {path}")
    return 0


_HOST_PORT = re.compile(r"^(?P<host>[^/:]+):(?P<port>\d+)$")


def _top_snapshot(source: str) -> dict:
    """One renderable telemetry snapshot from a file or a live server."""
    match = _HOST_PORT.match(source)
    if match and not Path(source).exists():
        from repro.serve.api import ApiClient

        with ApiClient(match["host"], int(match["port"])) as client:
            payload = client.metrics()
        if not payload.get("enabled"):
            raise ReproError(
                f"server at {source} is not recording telemetry; start "
                f"it with --telemetry-out (or SMITE_TELEMETRY_OUT)"
            )
        frames = list(payload.get("frames", []))
        live = payload.get("frame")
        if live is not None and (
            not frames or live["t"] > frames[-1]["t"]
        ):
            frames.append(live)
        return {"interval_s": payload["interval_s"],
                "emitted": len(frames), "dropped": 0, "frames": frames}
    return obs_timeseries.load_jsonl(source)


def _obs_top(args: argparse.Namespace) -> int:
    """Terminal top-style view: tail a telemetry series, re-rendering."""
    while True:
        snapshot_view = _top_snapshot(args.source)
        print(obs_timeseries.render_top(snapshot_view, width=args.width))
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        print()


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        if args.obs_command == "top":
            return _obs_top(args)
        if args.obs_command == "view":
            print(render_report(load_report(args.report),
                                limit=args.limit))
        elif args.obs_command == "diff":
            print(render_diff(
                load_report(args.report_a), load_report(args.report_b),
                a_label=Path(args.report_a).stem,
                b_label=Path(args.report_b).stem,
                limit=args.limit,
            ))
        else:  # trace
            doc = json.loads(
                Path(args.trace_file).read_text(encoding="utf-8")
            )
            print(obs_trace.render_trace_summary(doc, limit=args.top))
    except BrokenPipeError:
        raise  # piping into `head` is not an error; main() handles it
    except (OSError, ValueError) as exc:
        # Covers missing files, non-JSON input, and unsupported report
        # schemas (json.JSONDecodeError is a ValueError).
        raise ReproError(str(exc)) from exc
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="SMiTe one-off predictions and characterizations",
        epilog="All flags and SMITE_* environment variables (cache, jobs, "
               "metrics) are documented in one table in README.md "
               "('Configuration reference').",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list known workloads")

    characterize = sub.add_parser("characterize",
                                  help="Ruler-characterize one workload")
    characterize.add_argument("workload")
    characterize.add_argument("--machine", default=IVY_BRIDGE.name,
                              choices=sorted(MACHINES))
    characterize.add_argument("--mode", default="smt",
                              choices=("smt", "cmp"))

    predict = sub.add_parser("predict",
                             help="predict a pair's degradation")
    predict.add_argument("victim")
    predict.add_argument("aggressor")
    predict.add_argument("--machine", default=IVY_BRIDGE.name,
                         choices=sorted(MACHINES))
    predict.add_argument("--mode", default="smt", choices=("smt", "cmp"))
    predict.add_argument("--verify", action="store_true",
                         help="also measure the pair and report the error")

    safe = sub.add_parser("safe-batch",
                          help="safe instance counts for a latency app")
    safe.add_argument("latency_app")
    safe.add_argument("--qos", type=float, default=0.90,
                      help="QoS level on average performance (default 0.90)")

    serve = sub.add_parser(
        "serve",
        help="replay a job trace through the online serving runtime")
    serve.add_argument("--trace", default="diurnal",
                       choices=("poisson", "diurnal"),
                       help="arrival process (default diurnal)")
    serve.add_argument("--policy", default="smite",
                       choices=("smite", "random", "baseline"),
                       help="placement policy (default smite)")
    serve.add_argument("--qos", default="average:0.95",
                       help="QoS target: LEVEL, average:LEVEL, or "
                            "tail:LEVEL (default average:0.95)")
    serve.add_argument("--duration", type=float, default=86_400.0,
                       help="trace horizon in simulated seconds "
                            "(default one day)")
    serve.add_argument("--rate", type=float, default=0.05,
                       help="mean arrival rate, jobs/s (default 0.05)")
    serve.add_argument("--seed", type=int, default=42,
                       help="trace seed (default 42)")
    serve.add_argument("--servers", type=int, default=8,
                       help="servers per latency app (default 8)")
    serve.add_argument("--epoch", type=float, default=300.0,
                       help="event-epoch width in seconds (default 300)")
    serve.add_argument("--window", type=float, default=3_600.0,
                       help="SLO window width in seconds (default 3600)")
    serve.add_argument("--shards", type=int, default=0,
                       help="fan placement out over this many worker"
                            " processes (capped at one per server pool;"
                            " 0/1 stays in-process)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="max worker processes for --shards"
                            " (default: one per shard)")
    serve.add_argument("--adapt", action="store_true",
                       help="drift-triggered online recalibration: refit "
                            "the Sen x Con regression from audited "
                            "residuals and hot-swap coefficients at epoch "
                            "boundaries (requires --policy smite; see "
                            "docs/ADAPTATION.md)")
    serve.add_argument("--drift-bound", type=float, default=0.05,
                       help="mean |residual| per SLO window that counts "
                            "as calibration drift for --adapt "
                            "(default 0.05)")
    serve.add_argument("--refit-window", type=int, default=256,
                       help="residual observations retained for the "
                            "mini-batch refit fallback under --adapt "
                            "(default 256)")
    serve.add_argument("--fast", action="store_true",
                       help="CI-sized run: smaller training set and pools")
    serve.add_argument("--metrics-out", default=env_metrics_path(),
                       help="write the JSON run report here "
                            "(default: $SMITE_METRICS_OUT)")
    serve.add_argument("--trace-out", default=None,
                       help="write a Chrome trace-event JSON timeline "
                            "here (SMITE_TRACE_OUT is honored too)")
    serve.add_argument("--telemetry-out", default=None,
                       help="record the streaming telemetry time-series "
                            "and write it here: .jsonl for `obs top`, or "
                            ".prom/.om/.openmetrics for OpenMetrics "
                            "(SMITE_TELEMETRY_OUT is honored too)")
    serve.add_argument("--telemetry-interval", type=float,
                       default=obs_timeseries.DEFAULT_INTERVAL_S,
                       help="telemetry sampling cadence in simulated "
                            "seconds (default 300)")

    serve_api = sub.add_parser(
        "serve-api",
        help="answer prediction/placement queries over a TCP socket")
    serve_api.add_argument("--host", default="127.0.0.1",
                           help="interface to bind (default 127.0.0.1)")
    serve_api.add_argument("--port", type=int, default=0,
                           help="port to bind; 0 picks an ephemeral port, "
                                "printed at startup (in-process mode only)")
    serve_api.add_argument("--policy", default="smite",
                           choices=("smite", "random", "baseline"),
                           help="decider behind the socket (default smite)")
    serve_api.add_argument("--qos", default="average:0.95",
                           help="QoS target for --policy smite: LEVEL, "
                                "average:LEVEL, or tail:LEVEL "
                                "(default average:0.95)")
    serve_api.add_argument("--seed", type=int, default=42,
                           help="seed for --policy random (default 42)")
    serve_api.add_argument("--max-batch", type=int, default=64,
                           help="max requests coalesced into one decision "
                                "micro-batch (default 64)")
    serve_api.add_argument("--queue-bound", type=int, default=256,
                           help="pending-queue bound; overflow is answered "
                                "with the overloaded shed-to-baseline "
                                "response (default 256)")
    serve_api.add_argument("--batch-window", type=float, default=0.0,
                           help="seconds to linger after the first queued "
                                "request so a concurrent burst coalesces "
                                "(default 0: drain immediately)")
    serve_api.add_argument("--retry-after", type=float, default=50.0,
                           help="retry_after_ms hint carried by overloaded "
                                "responses (default 50)")
    serve_api.add_argument("--max-requests", type=int, default=None,
                           help="drain gracefully after answering this "
                                "many requests (default: serve until "
                                "shutdown)")
    serve_api.add_argument("--shards", type=int, default=0,
                           help="serve from this many worker processes, "
                                "each on its own printed ephemeral port "
                                "(0/1 stays in-process)")
    serve_api.add_argument("--jobs", type=int, default=None,
                           help="max worker processes for --shards "
                                "(default: one per shard)")
    serve_api.add_argument("--fast", action="store_true",
                           help="CI-sized run: smaller training set and "
                                "tail-model fits")
    serve_api.add_argument("--metrics-out", default=env_metrics_path(),
                           help="write the JSON run report here after the "
                                "drain (default: $SMITE_METRICS_OUT)")
    serve_api.add_argument("--telemetry-out", default=None,
                           help="record the streaming telemetry "
                                "time-series and write it here after the "
                                "drain; also enables the live `metrics` "
                                "wire op (SMITE_TELEMETRY_OUT is honored "
                                "too)")
    serve_api.add_argument("--telemetry-interval", type=float,
                           default=obs_timeseries.DEFAULT_INTERVAL_S,
                           help="telemetry sampling cadence in wall "
                                "seconds (default 300)")

    obs = sub.add_parser(
        "obs", help="inspect run reports and trace files")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    view = obs_sub.add_parser(
        "view", help="human-readable summary of one run report")
    view.add_argument("report")
    view.add_argument("--limit", type=int, default=8,
                      help="rows per table (default 8)")
    diff = obs_sub.add_parser(
        "diff", help="phase-attributed deltas between two run reports")
    diff.add_argument("report_a")
    diff.add_argument("report_b")
    diff.add_argument("--limit", type=int, default=12,
                      help="rows per delta table (default 12)")
    trace = obs_sub.add_parser(
        "trace", help="top-N longest events of a Chrome trace file")
    trace.add_argument("trace_file")
    trace.add_argument("--top", type=int, default=10,
                       help="events to show (default 10)")
    top = obs_sub.add_parser(
        "top", help="live terminal view of a telemetry time-series")
    top.add_argument("source",
                     help="telemetry JSONL path, or HOST:PORT of a "
                          "serve-api instance recording telemetry")
    top.add_argument("--once", action="store_true",
                     help="render one snapshot and exit instead of "
                          "tailing")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in wall seconds (default 2)")
    top.add_argument("--width", type=int, default=24,
                     help="sparkline width in characters (default 24)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``smite`` command-line interface."""
    args = _parser().parse_args(argv)
    handlers = {
        "workloads": _cmd_workloads,
        "characterize": _cmd_characterize,
        "predict": _cmd_predict,
        "safe-batch": _cmd_safe_batch,
        "serve": _cmd_serve,
        "serve-api": _cmd_serve_api,
        "obs": _cmd_obs,
    }
    # Every command honors SMITE_TRACE_OUT and SMITE_TELEMETRY_OUT like
    # the runner does; serve and serve-api also take the flags.
    with recording(
        getattr(args, "trace_out", None),
        getattr(args, "telemetry_out", None),
        getattr(args, "telemetry_interval",
                obs_timeseries.DEFAULT_INTERVAL_S),
    ):
        try:
            return handlers[args.command](args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # Output was piped into something like `head`; not an error.
            return 0
        finally:
            # serve and serve-api write their own report (their
            # --metrics-out defaults to the variable); the rest get a
            # bare one.
            if "metrics_out" not in vars(args):
                maybe_write_env_report()


if __name__ == "__main__":
    raise SystemExit(main())
