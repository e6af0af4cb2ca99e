"""Fixed-width text tables for experiment reports.

Every experiment driver prints its result as one of these tables so the
runner output reads like the rows of the corresponding paper table or
figure.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["format_table", "format_cell"]


def format_cell(value: object) -> str:
    """Render a table cell: floats get 4 significant decimals, rest str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render a fixed-width table with a header rule.

    ``rows`` cells may be any type; floats are formatted consistently.
    """
    if not headers:
        raise ConfigurationError("a table needs at least one header")
    rendered = [[format_cell(c) for c in row] for row in rows]
    for i, row in enumerate(rendered):
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row {i} has {len(row)} cells for {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in rendered:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)
