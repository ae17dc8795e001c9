"""Extension experiment: reservation-based admission vs best-effort EDF.

Quantifies the introduction's argument against best-effort parallel
resource management for soft real-time work: on identical arrival streams,
compare the paper's arbitrator (admission control + reservations; every
admitted job on time, rejected jobs never consume resources) against the
best-effort EDF executor (no admission; late jobs waste the processor time
they consumed before dropping).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.arbitrator import QoSArbitrator
from repro.sim.arrivals import PoissonArrivals
from repro.sim.executor import BestEffortMetrics, EDFExecutor
from repro.sim.rng import RandomStreams
from repro.sim.simulator import simulate_arrivals
from repro.workloads import SweepConfig, presets

__all__ = ["BestEffortComparison", "run_best_effort_comparison", "render_best_effort"]


@dataclass(frozen=True, slots=True)
class BestEffortComparison:
    """One operating point: arbitrator vs best-effort EDF."""

    interval: float
    reservation_on_time: int
    reservation_utilization: float
    edf_on_time: int
    edf_utilization: float
    edf_goodput_utilization: float
    edf_wasted_area: float
    offered: int

    def as_dict(self) -> dict[str, object]:
        return {
            "interval": self.interval,
            "offered": self.offered,
            "resv_on_time": self.reservation_on_time,
            "edf_on_time": self.edf_on_time,
            "resv_util": self.reservation_utilization,
            "edf_util": self.edf_utilization,
            "edf_goodput": self.edf_goodput_utilization,
            "edf_wasted": self.edf_wasted_area,
        }


def run_best_effort_comparison(
    intervals: tuple[float, ...] = (10.0, 20.0, 30.0, 45.0, 60.0, 85.0),
    n_jobs: int | None = None,
    seed: int = presets.DEFAULT_SEED,
) -> list[BestEffortComparison]:
    """Compare both managers across arrival intervals (tunable job stream).

    The best-effort side runs each tunable job's first chain.
    """
    config = SweepConfig(n_jobs=presets.n_jobs(n_jobs), seed=seed)
    rows: list[BestEffortComparison] = []
    for interval in intervals:
        streams = RandomStreams(seed)
        arrivals = list(PoissonArrivals(interval, streams).times(config.n_jobs))

        arbitrator = QoSArbitrator(config.processors, keep_placements=False)
        reservation = simulate_arrivals(
            arbitrator,
            lambda i, release: config.params.tunable_job(release),
            _Replay(arrivals),
            config.n_jobs,
        )

        executor = EDFExecutor(config.processors)
        best_effort: BestEffortMetrics = executor.run(
            config.params.tunable_job(t) for t in arrivals
        )

        rows.append(
            BestEffortComparison(
                interval=interval,
                reservation_on_time=reservation.throughput,
                reservation_utilization=reservation.utilization,
                edf_on_time=best_effort.on_time,
                edf_utilization=best_effort.utilization,
                edf_goodput_utilization=best_effort.goodput_utilization,
                edf_wasted_area=best_effort.wasted_area,
                offered=config.n_jobs,
            )
        )
    return rows


class _Replay:
    """Arrival process replaying a pre-drawn time list."""

    def __init__(self, times: list[float]) -> None:
        self._times = times

    def times(self, n: int):
        return iter(self._times[:n])


def render_best_effort(rows: list[BestEffortComparison]) -> str:
    """Comparison table."""
    return format_table(
        [r.as_dict() for r in rows],
        precision=3,
        title="extension: reservation-based admission vs best-effort EDF "
        "(tunable job stream)",
    )
