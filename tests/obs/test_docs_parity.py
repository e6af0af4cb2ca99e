"""Docs stay truthful: OBSERVABILITY.md mirrors the catalog, the
EXPERIMENTS.md reproduction guide mirrors the experiment registry, and
the README Configuration reference mirrors the CLI's actual flags."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import all_experiment_ids
from repro.obs.catalog import CATALOG

REPO = Path(__file__).resolve().parents[2]

_METRIC_ROW = re.compile(
    r"^\| `(?P<name>[^`]+)` \| "
    r"(?P<kind>counter|gauge|histogram|span|trace|alert) "
    r"\| (?P<unit>[^|]+) \| (?P<description>[^|]+) \|$"
)


def _documented_metrics() -> dict[tuple[str, str], str]:
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        match = _METRIC_ROW.match(line.strip())
        if match:
            key = (match["kind"], match["name"])
            assert key not in rows, f"duplicate doc row for {key}"
            rows[key] = match["unit"].strip()
    return rows


def test_every_catalog_metric_is_documented():
    documented = _documented_metrics()
    missing = [(s.kind, s.name) for s in CATALOG
               if (s.kind, s.name) not in documented]
    assert not missing, (
        f"metrics missing from docs/OBSERVABILITY.md: {missing}"
    )


def test_every_documented_metric_exists_in_the_catalog():
    cataloged = {(s.kind, s.name) for s in CATALOG}
    stale = [key for key in _documented_metrics() if key not in cataloged]
    assert not stale, (
        f"docs/OBSERVABILITY.md documents metrics the code no longer "
        f"emits: {stale}"
    )


def test_documented_units_match_the_catalog():
    documented = _documented_metrics()
    mismatched = [
        (spec.name, documented[(spec.kind, spec.name)], spec.unit)
        for spec in CATALOG
        if documented.get((spec.kind, spec.name)) not in (None, spec.unit)
    ]
    assert not mismatched


def _guide_rows() -> dict[str, str]:
    """Experiment id -> command cell of the per-figure guide table."""
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    match = re.search(
        r"## Per-figure reproduction guide\n(?P<body>.*?)(?=\n## )",
        text, re.DOTALL,
    )
    assert match, "EXPERIMENTS.md lost its per-figure reproduction guide"
    rows = {}
    row_pattern = re.compile(
        r"^\| `(?P<id>[a-z0-9_]+)` \| `(?P<cmd>[^`]+)` \|"
    )
    for line in match["body"].splitlines():
        row = row_pattern.match(line.strip())
        if row:
            assert row["id"] not in rows, f"duplicate guide row {row['id']}"
            rows[row["id"]] = row["cmd"]
    return rows


def test_guide_covers_every_registered_experiment():
    rows = _guide_rows()
    registered = set(all_experiment_ids())
    assert set(rows) == registered, (
        f"guide missing {registered - set(rows)}, "
        f"stale rows {set(rows) - registered}"
    )


def test_guide_commands_invoke_the_runner_with_the_row_id():
    for experiment_id, command in _guide_rows().items():
        assert command.startswith("python -m repro.experiments.runner ")
        assert f" {experiment_id}" in command


# -- README Configuration reference vs the live CLI ----------------------

def _check_docs():
    """``scripts/check_docs.py``, which owns the flag-table parsing."""
    module = sys.modules.get("check_docs")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "check_docs", REPO / "scripts" / "check_docs.py")
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: its dataclasses look it up.
        sys.modules["check_docs"] = module
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("subcommand", ["serve", "serve-api"])
def test_every_serving_cli_flag_is_documented(subcommand):
    check_docs = _check_docs()
    tables = check_docs.flag_tables(
        (REPO / "README.md").read_text(encoding="utf-8"))
    label = f"repro.cli {subcommand}"
    # A serving flag may be documented either in its own table or in the
    # shared runner table (--fast, --metrics-out, --trace-out, ...).
    documented = tables[label] | tables["runner"]
    missing = check_docs.parser_flags(label) - documented
    assert not missing, (
        f"README documents no row for repro.cli {subcommand} "
        f"flags: {sorted(missing)}"
    )


@pytest.mark.parametrize("subcommand", ["serve", "serve-api"])
def test_every_documented_serving_flag_exists(subcommand):
    check_docs = _check_docs()
    label = f"repro.cli {subcommand}"
    stale = check_docs.flag_tables(
        (REPO / "README.md").read_text(encoding="utf-8"))[label] \
        - check_docs.parser_flags(label)
    assert not stale, (
        f"README's repro.cli {subcommand} table documents flags the CLI "
        f"no longer has: {sorted(stale)}"
    )
