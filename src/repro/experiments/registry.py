"""The experiment registry: paper identifier -> driver.

Each driver is named by its ``"module:function"`` path and imported only
when it runs, so listing the ids (``runner --list``) imports no
experiment module, and running one imports only its own.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.experiments.base import ExperimentConfig, ExperimentResult

__all__ = ["EXPERIMENTS", "EXPERIMENT_FAMILIES", "all_experiment_ids",
           "get_experiment", "group_by_family", "run_experiment"]

ExperimentFn = Callable[["ExperimentConfig"], "ExperimentResult"]

#: Every experiment, in paper order, as the ``"module:function"`` path of
#: its driver.
EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.table1:run",
    "fig2": "repro.experiments.fig02_fu_sencon:run",
    "fig3": "repro.experiments.fig03_fu_utilization:run",
    "fig4": "repro.experiments.fig04_mem_sencon:run",
    "fig5": "repro.experiments.fig05_memport_utilization:run",
    "fig6": "repro.experiments.fig06_summary:run",
    "fig7": "repro.experiments.fig07_correlation:run",
    "fig9": "repro.experiments.fig09_rulers:run",
    "fig10": "repro.experiments.fig10_spec_smt:run",
    "fig11": "repro.experiments.fig11_spec_cmp:run",
    "fig12": "repro.experiments.fig12_cloudsuite:run",
    "fig13": "repro.experiments.fig13_tail_latency:run",
    "fig14": "repro.experiments.fig14_17_scaleout:run_fig14",
    "fig15": "repro.experiments.fig14_17_scaleout:run_fig15",
    "fig16": "repro.experiments.fig14_17_scaleout:run_fig16",
    "fig17": "repro.experiments.fig14_17_scaleout:run_fig17",
    "fig18": "repro.experiments.fig18_tco:run",
    "figs_online": "repro.experiments.figS_online_scaleout:run",
    "figs_adaptive": "repro.experiments.figs_adaptive:run",
}


#: Experiments that share expensive in-process fixtures (the memoized
#: characterizations, predictors, and scale-out studies in
#: :mod:`repro.experiments.context` and the figure modules). A parallel
#: runner should keep each family in one worker: splitting a family
#: across processes recomputes its shared fixture once per process.
#: Ordered roughly most-expensive-first so a longest-job-first scheduler
#: can simply submit in declaration order.
EXPERIMENT_FAMILIES: tuple[tuple[str, ...], ...] = (
    ("fig14", "fig15", "fig18"),   # average-performance scale-out study
    ("fig16", "fig17"),            # tail-latency scale-out study
    ("figs_online",),              # online serving replay (own predictor)
    ("figs_adaptive",),            # drift/recalibration replay (own predictor)
    ("fig12", "fig13"),            # CloudSuite predictor + tail models
    ("fig10", "fig11"),            # SPEC accuracy predictors
    ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9"),
    ("table1",),
)


def group_by_family(ids: list[str]) -> list[list[str]]:
    """Partition requested ids into fixture-sharing work units.

    Family-internal order follows the request; unknown ids become
    singleton groups (get_experiment will report them properly later).
    """
    groups: dict[int, list[str]] = {}
    family_of = {eid: i for i, family in enumerate(EXPERIMENT_FAMILIES)
                 for eid in family}
    extras: list[list[str]] = []
    for eid in ids:
        index = family_of.get(eid)
        if index is None:
            extras.append([eid])
        else:
            groups.setdefault(index, []).append(eid)
    return [groups[i] for i in sorted(groups)] + extras


def all_experiment_ids() -> list[str]:
    """Every registered experiment, in paper order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentFn:
    """Look up an experiment's run function by its id, importing its module."""
    try:
        path = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}"
        ) from exc
    module, _, function = path.partition(":")
    return getattr(importlib.import_module(module), function)


def run_experiment(experiment_id: str,
                   config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run one experiment by its paper identifier."""
    if config is None:
        from repro.experiments.base import ExperimentConfig

        config = ExperimentConfig()
    return get_experiment(experiment_id)(config)
