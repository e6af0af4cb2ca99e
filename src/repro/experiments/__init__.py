"""Experiment drivers: one per table and figure of the paper's evaluation.

Every experiment is a callable registered under its paper identifier
(``table1``, ``fig2`` ... ``fig18``) that returns an
:class:`~repro.experiments.base.ExperimentResult` with the rows the paper
reports plus headline metrics. Run them all with::

    python -m repro.experiments.runner --all

or individually through :func:`repro.experiments.registry.run_experiment`.
"""

from typing import TYPE_CHECKING

from repro._lazy import exports

if TYPE_CHECKING:
    from repro.experiments.base import ExperimentConfig, ExperimentResult
    from repro.experiments.registry import (
        all_experiment_ids,
        get_experiment,
        run_experiment,
    )

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "all_experiment_ids",
    "get_experiment",
    "run_experiment",
]

_EXPORTS = {
    "repro.experiments.base": ("ExperimentConfig", "ExperimentResult"),
    "repro.experiments.registry": ("all_experiment_ids", "get_experiment",
                                   "run_experiment"),
}

__getattr__, __dir__ = exports(globals(), _EXPORTS)
