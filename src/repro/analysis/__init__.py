"""Result rendering and statistics: tables, ASCII plots, summary stats."""

from repro.analysis.tables import format_table, format_sweep
from repro.analysis.plots import ascii_chart, sweep_chart
from repro.analysis.stats import mean_ci, bootstrap_ci, relative_benefit
from repro.analysis.svg import render_svg_gantt
from repro.analysis.report import sweep_from_json_summary, sweep_to_json

__all__ = [
    "format_table",
    "format_sweep",
    "ascii_chart",
    "sweep_chart",
    "mean_ci",
    "bootstrap_ci",
    "relative_benefit",
    "render_svg_gantt",
    "sweep_to_json",
    "sweep_from_json_summary",
]
