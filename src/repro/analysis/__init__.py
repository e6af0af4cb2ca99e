"""Statistics and regression utilities shared across the library.

This package deliberately implements the small amount of statistics the
paper needs (Pearson correlation, empirical CDFs, ordinary least squares)
directly on numpy so the core library depends on nothing heavier.
"""

from typing import TYPE_CHECKING

from repro._lazy import exports

if TYPE_CHECKING:
    from repro.analysis.linreg import LinearModel, fit_least_squares
    from repro.analysis.stats import (
        empirical_cdf,
        pearson,
        pearson_matrix,
        summarize,
    )
    from repro.analysis.tables import format_table

__all__ = [
    "LinearModel",
    "fit_least_squares",
    "empirical_cdf",
    "pearson",
    "pearson_matrix",
    "summarize",
    "format_table",
]

_EXPORTS = {
    "repro.analysis.linreg": ("LinearModel", "fit_least_squares"),
    "repro.analysis.stats": ("empirical_cdf", "pearson", "pearson_matrix",
                             "summarize"),
    "repro.analysis.tables": ("format_table",),
}

__getattr__, __dir__ = exports(globals(), _EXPORTS)
