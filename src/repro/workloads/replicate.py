"""Multi-seed replication of experiment points.

The paper reports single 10,000-arrival runs; at reduced scale, seed noise
can blur comparisons.  This harness replicates a point across seeds and
reports mean ± confidence interval per metric and system, plus a
paired-difference test of the tunability benefit (common random numbers
make per-seed differences the right unit of comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.analysis.stats import mean_ci
from repro.errors import WorkloadError
from repro.workloads.sweep import SweepConfig

__all__ = ["ReplicatedMetric", "ReplicatedPoint", "replicate_point"]


@dataclass(frozen=True, slots=True)
class ReplicatedMetric:
    """Mean and CI of one metric for one system across seeds."""

    mean: float
    ci_low: float
    ci_high: float
    samples: tuple[float, ...]

    @property
    def half_width(self) -> float:
        """Half the CI width (the ± in mean ± h)."""
        return (self.ci_high - self.ci_low) / 2


@dataclass(frozen=True, slots=True)
class ReplicatedPoint:
    """Replication result: metric → system → :class:`ReplicatedMetric`."""

    config: SweepConfig
    seeds: tuple[int, ...]
    metrics: Mapping[str, Mapping[str, ReplicatedMetric]]

    def benefit_ci(
        self, metric: str, over: str, confidence: float = 0.95
    ) -> ReplicatedMetric:
        """CI of the *paired* per-seed benefit (tunable − baseline)."""
        tun = self.metrics[metric]["tunable"].samples
        base = self.metrics[metric][over].samples
        diffs = [a - b for a, b in zip(tun, base)]
        mean, lo, hi = mean_ci(diffs, confidence)
        return ReplicatedMetric(mean, lo, hi, tuple(diffs))

    def benefit_significant(self, metric: str, over: str) -> bool:
        """True when the paired benefit CI excludes zero (from below)."""
        ci = self.benefit_ci(metric, over)
        return ci.ci_low > 0


def replicate_point(
    config: SweepConfig,
    seeds: Sequence[int],
    systems: Sequence[str] = ("tunable", "shape1", "shape2"),
    metrics: Sequence[str] = ("throughput", "utilization"),
    confidence: float = 0.95,
    runner: "object | None" = None,
) -> ReplicatedPoint:
    """Run one configuration point across several seeds.

    All systems share each seed's arrival sequence (common random numbers),
    so :meth:`ReplicatedPoint.benefit_ci` is a paired comparison — the
    pairing is carried by the seed inside each work unit's config, so
    running units in parallel or from the runner's memo (``runner``; see
    :func:`repro.workloads.sweep.run_sweep`) preserves it exactly.
    """
    from repro.runner import get_default_runner  # local: avoids an import cycle

    if len(seeds) < 1:
        raise WorkloadError("replication needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise WorkloadError(f"duplicate seeds: {list(seeds)}")
    active = runner if runner is not None else get_default_runner()
    units = [
        (replace(config, seed=seed), system)
        for seed in seeds
        for system in systems
    ]
    runs = active.run_units(units)  # type: ignore[attr-defined]
    samples: dict[str, dict[str, list[float]]] = {
        m: {s: [] for s in systems} for m in metrics
    }
    flat_runs = iter(runs)
    for _seed in seeds:
        for system in systems:
            flat = next(flat_runs).as_dict()
            for metric in metrics:
                samples[metric][system].append(float(flat[metric]))
    out: dict[str, dict[str, ReplicatedMetric]] = {}
    for metric in metrics:
        out[metric] = {}
        for system in systems:
            values = samples[metric][system]
            mean, lo, hi = mean_ci(values, confidence)
            out[metric][system] = ReplicatedMetric(mean, lo, hi, tuple(values))
    return ReplicatedPoint(config=config, seeds=tuple(seeds), metrics=out)
