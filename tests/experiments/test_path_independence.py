"""No experiment's output depends on which experiments ran before it.

Each fixture-sharing family of :data:`EXPERIMENT_FAMILIES` runs alone
from a clean state (a fresh ``Simulator``, every memoized fixture
forgotten, no disk cache). Its results must equal its slice of the
session's ``--all --fast`` run, and it must solve nothing one read at a
time: every measurement a family reads is prefetched by the family
itself, not by an experiment that happened to run first.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENT_FAMILIES, all_experiment_ids


def _dump(result: ExperimentResult) -> str:
    """The result as the runner's ``--json`` writes it."""
    return json.dumps({
        "title": result.title,
        "paper_claim": result.paper_claim,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "metrics": dict(result.metrics),
    }, indent=2, default=str)


def test_families_cover_every_experiment():
    family_ids = [eid for family in EXPERIMENT_FAMILIES for eid in family]
    assert sorted(family_ids) == sorted(all_experiment_ids())


def test_all_makes_no_unprefetched_solves(fast_all):
    _results, solves = fast_all
    assert solves == 0


@pytest.mark.parametrize("family", EXPERIMENT_FAMILIES,
                         ids=["+".join(f) for f in EXPERIMENT_FAMILIES])
def test_a_family_alone_equals_its_slice_of_all(family, fast_results,
                                                run_alone):
    results, solves = run_alone(family)
    assert solves == 0
    for eid in family:
        assert _dump(results[eid]) == _dump(fast_results[eid]), eid
