"""Plain-text rendering of tables and figure series.

The experiment harness prints every reproduced figure/table as text so
that results can be inspected (and saved as reports; see
``docs/experiments.md``) without a plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple fixed-width table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(series: Mapping[str, Mapping[str, float]], title: str = "",
                  value_format: str = "{:.3f}") -> str:
    """Render a figure with several named series over the same x labels.

    ``series`` maps series-name -> (x-label -> value).
    """
    all_labels: list[str] = []
    for values in series.values():
        for label in values:
            if label not in all_labels:
                all_labels.append(label)
    headers = ["series"] + all_labels
    rows = []
    for name, values in series.items():
        row = [name] + [
            value_format.format(values[label]) if label in values else "-"
            for label in all_labels
        ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_figure(x_values: Sequence[object], series: Mapping[str, Sequence[float]],
                  title: str = "", value_format: str = "{:.3f}") -> str:
    """Render a figure whose series share an ordered x axis."""
    headers = ["x"] + list(series.keys())
    rows = []
    for index, x in enumerate(x_values):
        row = [x]
        for values in series.values():
            row.append(value_format.format(values[index]) if index < len(values) else "-")
        rows.append(row)
    return format_table(headers, rows, title=title)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
