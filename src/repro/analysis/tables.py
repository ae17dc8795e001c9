"""Fixed-width text tables for experiment output.

``python -m repro.experiments`` prints the same rows/series the paper's
figures plot (committed as ``results/quick_report.txt``); these helpers
render them readably in terminals, logs and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["format_table", "format_sweep"]


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    precision: int = 3,
    title: str = "",
) -> str:
    """Render dict rows as an aligned text table.

    ``columns`` selects and orders the columns (default: keys of the first
    row).  Missing cells render as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    if not cols:
        raise ConfigurationError("format_table needs at least one column")
    rendered = [
        [_fmt(row.get(c, "-"), precision) for c in cols] for row in rows
    ]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def format_sweep(
    sweep: "object",
    metric: str = "throughput",
    precision: int = 3,
    title: str = "",
) -> str:
    """Render one metric of a :class:`~repro.workloads.sweep.SweepResult`.

    One row per swept value, one column per task system — the exact layout
    of the paper's figure series.
    """
    rows = []
    for value in sweep.values:  # type: ignore[attr-defined]
        # Axis values render with %g regardless of the metric precision
        # (precision=0 on a laxity axis must not collapse 0.05 to 0).
        row: dict[str, object] = {sweep.axis: format(value, "g")}  # type: ignore[attr-defined]
        for system in sweep.systems:  # type: ignore[attr-defined]
            row[system] = sweep.rows[value][system].as_dict()[metric]  # type: ignore[attr-defined]
        rows.append(row)
    return format_table(rows, precision=precision, title=title or f"{metric} vs {sweep.axis}")  # type: ignore[attr-defined]
