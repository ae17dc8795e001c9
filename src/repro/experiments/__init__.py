"""Experiment runners — one per paper table/figure, plus ablations.

Each runner regenerates the rows/series of one figure of the paper's
evaluation section (see DESIGN.md's per-experiment index) and returns both
the raw results and a rendered text report.  ``python -m repro.experiments
<id>`` runs one; its stdout over every id is ``results/quick_report.txt``
(:mod:`repro.experiments.__main__` says how to re-mint it).
"""

from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["EXPERIMENTS", "run_experiment"]
