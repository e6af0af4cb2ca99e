"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig10 fig11
    python -m repro.experiments.runner --all [--fast] [--json out.json]
    python -m repro.experiments.runner --all --jobs 4
    python -m repro.experiments.runner --all --metrics --metrics-out run.json

With ``--jobs N`` (or ``SMITE_JOBS=N``) experiments fan out over a
process pool. Workers share the persistent solve cache (atomic writes,
no locking needed) and reuse what it already holds, but on a cold cache
concurrent workers solve overlapping batches: a cold ``--all --fast
--jobs 2`` stores ~8,150 results for 5,780 distinct keys. Every solve
is a batch solve whose result does not depend on its batch, so a cold
run prints the same bytes at any ``--jobs``; a warm cache makes re-runs
nearly solver-free.

Every run can emit a machine-readable *run report* — per-experiment
span durations, solve-cache hit rates, and per-worker metric snapshots
merged back into one registry (see ``docs/OBSERVABILITY.md``). Write it
with ``--metrics-out PATH`` or by setting ``SMITE_METRICS_OUT``; print
the human summary (top spans, cache ratios) with ``--metrics``.

``--trace-out PATH`` (or ``SMITE_TRACE_OUT``) additionally records a
Chrome trace-event timeline of the run's spans — wall-clock only, and
only for work done in the runner process (``--jobs 1``); worker
processes do not forward trace events. ``SMITE_TELEMETRY_OUT`` arms the
telemetry sampler the same way (see :func:`repro.obs.report.recording`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.experiments.registry import (
    all_experiment_ids,
    group_by_family,
    run_experiment,
)
from repro.obs import report as obs_report

if TYPE_CHECKING:
    from repro.experiments.base import ExperimentConfig, ExperimentResult

__all__ = ["main"]

_EPILOG = (
    "All flags and SMITE_* environment variables are documented in one "
    "table in README.md ('Configuration reference')."
)


def _default_jobs() -> int:
    raw = os.environ.get("SMITE_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        print(f"ignoring invalid SMITE_JOBS={raw!r}", file=sys.stderr)
        return 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smite-experiments",
        description="Reproduce the SMiTe paper's tables and figures.",
        epilog=_EPILOG,
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig10 fig14); "
                             "see --list")
    parser.add_argument("--all", action="store_true",
                        help="run every registered experiment")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--fast", action="store_true",
                        help="shrink the expensive studies (CI mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", metavar="PATH",
                        help="also dump results (rows + metrics) as JSON")
    parser.add_argument("--jobs", "-j", type=int, default=_default_jobs(),
                        metavar="N",
                        help="worker processes (default: $SMITE_JOBS or 1)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persistent solve-cache directory "
                             "(default: $SMITE_CACHE_DIR or .smite_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent solve cache")
    parser.add_argument("--metrics", action="store_true",
                        help="print the run's metric summary "
                             "(top spans, cache hit rates)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        default=obs_report.env_metrics_path(),
                        help="write the machine-readable run report as JSON "
                             "(default: $SMITE_METRICS_OUT)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace-event JSON timeline "
                             "(default: $SMITE_TRACE_OUT)")
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    return _parser().parse_args(argv)


def _run_one(experiment_id: str,
             config: ExperimentConfig) -> tuple[ExperimentResult, float]:
    """Run one experiment; module-level so worker processes can pickle it."""
    started = time.time()
    with obs.span(f"experiment.{experiment_id}"):
        result = run_experiment(experiment_id, config)
    return result, time.time() - started


def _run_group(
    ids: list[str], config: ExperimentConfig,
) -> tuple[list[tuple[ExperimentResult, float]], dict[str, Any]]:
    """Run one fixture-sharing family serially inside a worker.

    The worker's metrics registry is reset first and snapshotted after,
    so the returned snapshot is exactly this group's contribution even
    when the pool reuses a worker process for several groups.
    """
    obs.reset()
    outcomes = [_run_one(experiment_id, config) for experiment_id in ids]
    return outcomes, obs.snapshot()


def _apply_cache_env(args: argparse.Namespace) -> None:
    """Translate cache flags into the env vars the workers inherit."""
    if args.no_cache:
        os.environ["SMITE_NO_CACHE"] = "1"
    elif args.cache_dir is not None:
        os.environ["SMITE_CACHE_DIR"] = args.cache_dir


def main(argv: list[str] | None = None) -> int:
    """Entry point for the experiment runner CLI."""
    args = _parse_args(argv)
    if args.list:
        for experiment_id in all_experiment_ids():
            print(experiment_id)
        return 0
    ids = all_experiment_ids() if args.all else args.experiments
    if not ids:
        print("nothing to run; pass experiment ids or --all (see --list)",
              file=sys.stderr)
        return 2
    _apply_cache_env(args)
    with obs_report.recording(trace_out=args.trace_out):
        _run(ids, args)
    return 0


def _run(ids: list[str], args: argparse.Namespace) -> None:
    """Run the experiments, print them, and write the requested files."""
    from repro.experiments.base import ExperimentConfig

    config = ExperimentConfig(fast=args.fast, seed=args.seed)
    jobs = max(1, args.jobs)
    groups = group_by_family(ids)
    obs.get_registry().gauge("runner.jobs").set(jobs)
    obs.get_registry().gauge("runner.experiments").set(len(ids))
    run_started = time.time()
    workers: list[dict[str, Any]] = []
    dumps = {}
    if jobs == 1 or len(groups) == 1:
        baseline = obs.snapshot()
        outcomes = {experiment_id: _run_one(experiment_id, config)
                    for experiment_id in ids}
        workers.append({"worker": 0, "experiments": list(ids),
                        "metrics": _snapshot_delta(baseline, obs.snapshot())})
    else:
        # One task per fixture-sharing family (splitting a family across
        # workers would recompute its shared fixtures per process); the
        # groups come back heaviest-first, keeping workers balanced.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
            futures = [pool.submit(_run_group, group, config)
                       for group in groups]
            outcomes = {}
            for index, (group, future) in enumerate(zip(groups, futures)):
                group_outcomes, worker_snapshot = future.result()
                outcomes.update(zip(group, group_outcomes))
                obs.merge(worker_snapshot)
                workers.append({"worker": index, "experiments": list(group),
                                "metrics": worker_snapshot})
    for experiment_id in ids:
        result, elapsed = outcomes[experiment_id]
        print(result.render())
        print(f"[{experiment_id} completed in {elapsed:.1f}s]")
        print()
        dumps[experiment_id] = {
            "title": result.title,
            "paper_claim": result.paper_claim,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "metrics": dict(result.metrics),
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh, indent=2, default=str)
        print(f"wrote {args.json}")
    if args.metrics:
        print(obs_report.render_summary(obs.snapshot()))
    if args.metrics_out:
        report = obs_report.build_report(
            wall_seconds=time.time() - run_started,
            experiments={experiment_id: outcomes[experiment_id][1]
                         for experiment_id in ids},
            workers=workers,
        )
        obs_report.write_report(args.metrics_out, report)
        print(f"wrote {args.metrics_out}")


def _snapshot_delta(baseline: dict[str, Any],
                    current: dict[str, Any]) -> dict[str, Any]:
    """The in-process "worker" view of a serial run: current - baseline.

    Counters subtract; gauges and distributions (whose buckets do not
    subtract meaningfully) are reported as-is — the serial baseline is
    empty in practice, the subtraction only matters when a caller embeds
    the runner after other instrumented work.
    """
    counters = {
        name: value - baseline.get("counters", {}).get(name, 0)
        for name, value in current.get("counters", {}).items()
    }
    return {
        "counters": {n: v for n, v in counters.items() if v},
        "gauges": dict(current.get("gauges", {})),
        "histograms": dict(current.get("histograms", {})),
        "spans": dict(current.get("spans", {})),
    }


if __name__ == "__main__":
    raise SystemExit(main())
