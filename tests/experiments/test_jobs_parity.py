"""``--jobs`` does not change the runner's output.

Two families (fig2/fig3 and fig10) run cold with ``--jobs 2`` and with
``--jobs 1``, each into its own fresh solve cache, then warm on the
``--jobs 2`` cache. Concurrent workers write and read the same segment
directory, and fig3 builds result objects from ``run_many``, so the
three ``--json`` outputs being byte-equal covers the cache format and
the materialized results as well as the scheduling.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
IDS = ("fig2", "fig3", "fig10")


def _run(tmp_path: Path, name: str, jobs: int, cache: Path) -> bytes:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("SMITE_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / f"{name}.json"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *IDS, "--fast",
         "--jobs", str(jobs), "--cache-dir", str(cache), "--json", str(out)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return out.read_bytes()


def test_jobs_and_cache_state_leave_the_output_unchanged(tmp_path):
    parallel = tmp_path / "parallel-cache"
    cold_parallel = _run(tmp_path, "cold-jobs2", 2, parallel)
    cold_serial = _run(tmp_path, "cold-jobs1", 1, tmp_path / "serial-cache")
    assert list(parallel.glob("segments/*/*.seg"))
    warm_parallel = _run(tmp_path, "warm-jobs2", 2, parallel)
    assert cold_parallel == cold_serial
    assert warm_parallel == cold_serial
