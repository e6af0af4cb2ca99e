"""End-to-end benchmark: paper pipeline, warehouse replay, API round trips.

Usage::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--seconds S] [--trace [0|1]]
                                 [--out DIR] [--smoke]
    python benchmarks/e2e/run.py compare PARENT_DIR CHANGE_DIR
    python benchmarks/e2e/run.py refs

With one ``--workload`` the run happens in this process and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric, or
with ``--trace 1`` every per-layer metric. With several workloads (the
default is all three) each runs in its own child process. The command in
``BENCHMARK.json`` is run as ``--workload NAME --seed N --seconds S
--trace 0|1``, where ``S`` is its ``run_seconds``.

``--trace 1`` runs the workload with the layer wrappers installed (see
``layers.py``) and writes the span tree and ``layers.json`` under
``DIR/trace/``; with several workloads, ``--trace`` runs each one
untraced and then traced, and reports the tracing overhead. Every run
appends its record to ``DIR/results.json`` (default
``.bench_build/e2e``); ``compare`` reads two such directories. ``refs``
recomputes ``reference/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics: (name, unit, better). Each workload defines its
#: set-up, its cold pass and its warm operation (README.md).
E2E: tuple[tuple[str, str, str], ...] = (
    ("cold_s", "s", "lower"),
    ("warm_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Measuring time per run: BENCHMARK.json's run_seconds, and the
#: shorter one of a smoke-sized run.
DEFAULT_SECONDS = 2.0
SMOKE_SECONDS = 1.0
#: A run ends within this many seconds of starting, traced pass included.
RUN_DEADLINE_S = 170.0
#: Workloads that run inside this process (peak RSS is our own).
IN_PROCESS = frozenset({"serve-day"})
DEFAULT_OUT = ROOT / ".bench_build" / "e2e"


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend",
                        choices=workloads.WORKLOADS, metavar="NAME",
                        help=f"one or more of {', '.join(workloads.WORKLOADS)}"
                             " (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload run (default "
                             f"{DEFAULT_SECONDS:g}, or {SMOKE_SECONDS:g} "
                             "with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="install the layer wrappers and report "
                             "per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up each (self-tests)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_SELF if name in IN_PROCESS \
        else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _e2e_values(out: workloads.Outcome, rss_mb: float) -> dict[str, float]:
    """A run's end-to-end values: the medians of its samples, and RSS."""
    return {
        "cold_s": workloads.median(out.cold_s),
        "warm_ms": workloads.median(out.warm_s) * 1e3,
        "setup_s": workloads.median(out.setup_s),
        "peak_rss_mb": rss_mb,
    }


def _write_trace(args: argparse.Namespace, name: str,
                 traced: workloads.Outcome,
                 values: dict[str, float]) -> Path:
    directory = args.out / "trace" / f"{name}-seed{args.seed}"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "layers.json").write_text(json.dumps(
        {"workload": name, "seed": args.seed, "metrics": values,
         "processes": [{"wall_s": s["wall_s"], "layers": s["layers"]}
                       for s in traced.summaries]},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (directory / "spans.json").write_text(json.dumps(
        [s["tree"] for s in traced.summaries], indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    return directory


def run_one(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload here, traced or not; returns its record."""
    scratch = args.out / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        out = workloads.run_workload(name, workloads.Context(
            seed=args.seed, seconds=args.seconds, smoke=args.smoke,
            traced=bool(args.trace), work=work,
            deadline=time.perf_counter() + RUN_DEADLINE_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record: dict[str, Any] = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": args.trace,
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted, "failed": out.failed,
        "problems": out.problems,
        "metrics": _e2e_values(out, _peak_rss_mb(name)),
        "samples": {"setup_s": out.setup_s, "cold_s": out.cold_s,
                    "warm_s": out.warm_s},
        "details": out.details,
    }
    if args.trace:
        record["layers"] = layers.layer_metrics(
            out.summaries, client_request_s=out.client_request_s)
        record["trace_dir"] = str(_write_trace(args, name, out,
                                               record["layers"]))
    return record


def _append_results(out: Path, records: list[dict[str, Any]]) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "results.json"
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] \
        if path.exists() else []
    runs.extend(records)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n",
                    encoding="utf-8")
    return path


def _print_record(record: dict[str, Any]) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['seconds']:g} s): "
          f"{'correct' if record['correct'] else 'FAILED'}, "
          f"{record['failed']} of {record['attempted']} operations failed")
    for problem in record["problems"]:
        print(f"   ! {problem}")
    for name, unit, _better in E2E:
        print(f"   {name:<18} {record['metrics'][name]:>14.4f} {unit}")
    for name, unit, _better in layers.PER_LAYER:
        if name in record.get("layers", {}):
            print(f"   {name:<42} {record['layers'][name]:>12.4f} {unit}")
    if "trace_dir" in record:
        print(f"   span tree and layers.json in {record['trace_dir']}")


def _result_line(records: list[dict[str, Any]], traced: bool) -> str:
    table, key = (layers.PER_LAYER, "layers") if traced else (E2E, "metrics")
    shown = [record for record in records if key in record]
    metrics: dict[str, dict[str, Any]] = {}
    for record in shown:
        prefix = "" if len(shown) == 1 else f"{record['workload']}."
        for name, unit, _better in table:
            metrics[prefix + name] = {"value": record[key][name],
                                      "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def _run_child(args: argparse.Namespace, name: str,
               trace: int) -> dict[str, Any]:
    results = args.out / "results.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", str(args.out)]
    if args.smoke:
        command.append("--smoke")
    before = results.stat().st_mtime_ns if results.exists() else None
    subprocess.run(command, timeout=RUN_DEADLINE_S + 60.0)
    if not results.exists() or results.stat().st_mtime_ns == before:
        raise SystemExit(f"{name}: the run wrote no result")
    return json.loads(results.read_text(encoding="utf-8"))["runs"][-1]


def _run_children(args: argparse.Namespace,
                  names: list[str]) -> list[dict[str, Any]]:
    """Run each workload in its own process; collect their records.

    With ``--trace`` each workload runs untraced and then traced, and
    the tracing overhead is the traced run's warm latency over the
    untraced one's.
    """
    records = []
    for name in names:
        base = _run_child(args, name, 0)
        records.append(base)
        if not args.trace:
            continue
        traced = _run_child(args, name, 1)
        records.append(traced)
        untraced = base["metrics"]["warm_ms"]
        overhead = traced["metrics"]["warm_ms"] / untraced - 1.0 \
            if untraced else 0.0
        print(f"   trace overhead on warm_ms: {overhead:+.1%}")
        path = Path(traced["trace_dir"]) / "layers.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["overhead_share"] = overhead
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return records


def main(argv: list[str]) -> int:
    """Run workloads, print their metrics; exit 1 on a failed check."""
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] != ["refs"]:
        args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("SMITE_")]:
        del os.environ[key]
    if argv[:1] == ["refs"]:
        return refs()
    names = args.workloads or list(workloads.WORKLOADS)
    if len(names) > 1:
        records = _run_children(args, names)
    else:
        records = [run_one(names[0], args)]
        _append_results(args.out, records)
        _print_record(records[0])
    print(_result_line(records, bool(args.trace)))
    return 0 if all(r["correct"] for r in records) else 1


def refs() -> int:
    """Recompute the committed references at this commit."""
    scratch = DEFAULT_OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=scratch))
    try:
        workloads.write_references(workloads.Context(
            seed=42, seconds=0.0, smoke=False, traced=False, work=work,
            deadline=time.perf_counter() + 600.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {workloads.REFERENCE}")
    return 0


# -- compare ------------------------------------------------------------


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """Judge one (workload, metric) from paired parent/change runs.

    ``better`` when the change wins at least 9 of 10 pairs and the
    medians differ by more than the parent's interquartile range;
    ``unresolved`` when either side's spread exceeds the bound and not
    every change run beats every parent run; ``worse`` when the change's
    median is worse than the parent's by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = workloads.median(parent), workloads.median(change)
    q1, _, q3 = workloads.quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > 0 \
            and abs(c_med - p_med) > q3 - q1:
        return "better"

    def spread(values: list[float]) -> float:
        low, mid, high = workloads.quartiles(values)
        return (high - low) / abs(mid) if mid else 0.0

    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved"
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    return "worse" if worse_by > bound else "within bound"


def _load_runs(directory: Path) -> dict[str, list[dict[str, Any]]]:
    path = directory / "results.json"
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    grouped: dict[str, list[dict[str, Any]]] = {}
    for run in sorted(runs, key=lambda r: r["seed"]):
        if not run["smoke"] and not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare(argv: list[str]) -> int:
    """Print per workload x metric medians, quartiles and a verdict."""
    if len(argv) != 2:
        print("usage: run.py compare PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (_load_runs(Path(a)) for a in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<10} {'metric':<17} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30}  verdict")
    counts: dict[str, int] = {}
    for workload in workloads.WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for name, _unit, better in E2E:
            a = [r["metrics"][name] for r in parent[workload]]
            b = [r["metrics"][name] for r in change[workload]]
            judged = verdict(a, b, better, bounds[name])
            counts[judged] = counts.get(judged, 0) + 1
            qa, qb = workloads.quartiles(a), workloads.quartiles(b)
            print(f"{workload:<10} {name:<17} "
                  f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in qb):>30}  "
                  f"{judged} (n={len(a)}/{len(b)})")
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
