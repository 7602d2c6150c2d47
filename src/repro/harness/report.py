"""Plain-text renderers that print the paper's table rows.

Every experiment module renders through these helpers so the benchmark
logs read like the paper's tables: one row per matrix, ``∅`` for
out-of-memory, ``∞`` for never-catches-up.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Unicode cells matching the paper's notation.
OOM_CELL = "∅"
NEVER_CELL = "∞"


def format_cell(value, width: int = 10, digits: int = 2) -> str:
    """Render one table cell (None -> ∅, inf -> ∞, floats autoscaled)."""
    if value is None:
        return OOM_CELL.rjust(width)
    if isinstance(value, str):
        return value.rjust(width)
    if isinstance(value, float):
        if value != value:  # NaN
            return OOM_CELL.rjust(width)
        if value == float("inf"):
            return NEVER_CELL.rjust(width)
        if abs(value) >= 1e5 or (0 < abs(value) < 1e-3):
            return f"{value:.1e}".rjust(width)
        return f"{value:.{digits}f}".rjust(width)
    return str(value).rjust(width)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    col_width: int = 10,
    first_col_width: int = 6,
) -> str:
    """Monospace table with a title rule, paper-style."""
    out = [title, "=" * max(len(title), 8)]
    widths = [max(col_width, len(h) + 1) for h in headers[1:]]
    first_w = max(first_col_width, len(headers[0]) + 1)
    head = headers[0].ljust(first_w) + "".join(
        h.rjust(w) for h, w in zip(headers[1:], widths)
    )
    out.append(head)
    out.append("-" * len(head))
    for row in rows:
        line = str(row[0]).ljust(first_w) + "".join(
            format_cell(v, w) for v, w in zip(row[1:], widths)
        )
        out.append(line)
    return "\n".join(out)
