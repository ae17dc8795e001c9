"""Extension experiment: surviving a capacity drop via tunability.

Section 3.1 says the arbitrator "triggers renegotiation on detecting a
significant change in resource levels (e.g., on a fault ...)".  This
experiment quantifies what tunability buys in that scenario: admit a batch
of jobs on a P-processor machine, drop it to P' mid-run, renegotiate
through :class:`~repro.resilience.driver.RenegotiationDriver`, and count
the *affected* jobs (those not yet finished at the drop) that keep a
reservation.  A tunable job can be re-admitted on a different path — e.g.
its narrow-first transposition when the machine can no longer host the
wide task early — so its survival rate should dominate both rigid shapes'.

The trace-driven :mod:`repro.experiments.faults` runs the same comparison
as an online event stream (repeated failures with repair, overruns,
bursts); this batch variant is one capacity event over a pre-admitted
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.arbitrator import QoSArbitrator
from repro.resilience.driver import RenegotiationDriver
from repro.resilience.events import CapacityEvent, PerturbationTrace
from repro.sim.arrivals import PoissonArrivals
from repro.sim.rng import RandomStreams
from repro.workloads import presets
from repro.workloads.synthetic import SyntheticParams

__all__ = ["SurvivalPoint", "run_survival", "render_survival"]


@dataclass(frozen=True, slots=True)
class SurvivalPoint:
    """One (system, new capacity) outcome."""

    system: str
    new_capacity: int
    admitted: int
    affected: int
    carried: int
    reallocated: int
    path_switches: int
    dropped: int

    @property
    def survival_rate(self) -> float:
        """Fraction of affected jobs that kept a reservation."""
        if self.affected == 0:
            return 1.0
        return (self.carried + self.reallocated) / self.affected

    def as_dict(self) -> dict[str, object]:
        return {
            "system": self.system,
            "new_P": self.new_capacity,
            "admitted": self.admitted,
            "affected": self.affected,
            "carried": self.carried,
            "reallocated": self.reallocated,
            "path_switches": self.path_switches,
            "dropped": self.dropped,
            "survival": self.survival_rate,
        }


def run_survival(
    new_capacities: tuple[int, ...] = (24, 20, 16, 12),
    processors: int = 32,
    n_jobs: int | None = None,
    interval: float = 60.0,
    seed: int = presets.DEFAULT_SEED,
    params: SyntheticParams | None = None,
) -> list[SurvivalPoint]:
    """Admit a batch, drop capacity mid-horizon, renegotiate, count survivors.

    The drop instant is the median committed finish time, so roughly half
    the admitted work is affected.  The base machine is 2x the tall task
    (both rigid shapes admit well before the fault — the comparison is
    about *surviving* it, not about initial admission).
    """
    params = params or presets.default_params()
    n = min(presets.n_jobs(n_jobs), 2_000)
    points: list[SurvivalPoint] = []
    for system in ("tunable", "shape1", "shape2"):
        arrivals = PoissonArrivals(interval, RandomStreams(seed)).times(n)
        if system == "tunable":
            jobs = [params.tunable_job(release) for release in arrivals]
        else:
            jobs = [params.rigid_job(int(system[-1]), release) for release in arrivals]
        for new_capacity in new_capacities:
            # The driver swaps the arbitrator's schedule at the event, so
            # each drop renegotiates a freshly admitted batch.
            arbitrator = QoSArbitrator(processors)
            driver = RenegotiationDriver(arbitrator)
            for job, decision in zip(jobs, arbitrator.admit_batch(jobs)):
                if decision.admitted:
                    driver.register(job, decision.placement)
            finishes = sorted(cp.finish for cp in arbitrator.schedule.placements)
            if not finishes:
                break
            event = CapacityEvent(finishes[len(finishes) // 2], new_capacity)
            driver.on_capacity_change(event)
            driver.sweep_finished(math.inf)
            r = driver.finalize(
                PerturbationTrace(capacity_events=(event,))
            ).resilience
            points.append(
                SurvivalPoint(
                    system=system,
                    new_capacity=new_capacity,
                    admitted=arbitrator.admitted,
                    affected=r["affected"],
                    carried=r["carried"],
                    reallocated=r["replans"],
                    path_switches=r["path_switches"],
                    dropped=r["dropped"],
                )
            )
    return points


def render_survival(points: list[SurvivalPoint]) -> str:
    """Survival table across systems and drop severities."""
    return format_table(
        [p.as_dict() for p in points],
        precision=3,
        title="extension: job survival across a capacity drop "
        "(renegotiation with path switching)",
    )
