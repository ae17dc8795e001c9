"""Extension experiment: mid-execution malleability under faults.

Sweeps the reconfiguration-cost model against the processor failure rate
for the tunable (malleable) system, comparing ``ResizePolicy.OFF`` with
``GROW_SHRINK`` under **common random numbers**: at each fault rate both
arms replay the identical arrival sequence and perturbation trace, so any
difference is purely the resize decisions (plus their cost).

The committed regime is calibrated (and regression-tested in
tests/resilience/test_reconfig_experiment.py) so that both resize
directions actually fire:

* severity 0.6 on a 32-processor machine drops capacity to ~13, forcing
  renegotiated jobs onto narrow placements; mean repair 100 brings the
  processors back while those jobs are still running — the grow window;
* interval 35 keeps the machine loaded enough that arrivals are rejected,
  giving shrink-to-admit donors and beneficiaries.

What the committed table shows holds on its one seed only.  There,
grow/shrink beats no-resize on survival x quality at the lowest rate at
every committed cost (+4.36 each), ties at the middle rate, and the
costliest model trails no-resize at the highest rate (-3.44).  Paired
over seeds 1000-1059 under common random numbers (delta = benefit
grow/shrink - benefit off, mean and 95% CI, 300 arrivals):

* rate 3e-4: cost 0 +0.62 [-0.69, +1.93], cost 2 +1.06 [-0.14, +2.25],
  cost 8 +1.11 [+0.22, +2.01] — the "every cost" win is the committed
  seed's; across seeds only cost 8 excludes 0;
* rate 1e-3, costs 0/2/8: +2.24, +2.04, +1.89, every CI above 0 —
  resizing pays here, where the committed seed shows a tie;
* rate 2e-3, costs 0/2/8: +0.94, +0.55, +0.73, every CI spans 0 (cost
  8: 26 wins, 30 losses) — the costliest model does not trail no-resize
  across seeds.

At the paper's 10,000 arrivals every cell gains.  Paired over seeds
1000-1029 (``run_reconfig(n_jobs=10000, seed=s)``, about 27 s a seed on a
2-core x86_64 host), every 95% CI is above 0, so the resize engine stays:

* rate 3e-4, costs 0/2/8: +21.3 [+10.9, +31.7], +19.2 [+9.9, +28.6],
  +20.7 [+13.8, +27.6];
* rate 1e-3: +44.1 [+34.1, +54.1], +35.9 [+26.9, +44.8],
  +34.4 [+24.0, +44.9];
* rate 2e-3: +35.2 [+23.8, +46.6], +25.3 [+13.4, +37.1],
  +12.8 [+4.4, +21.3].

Those are +0.3% to +1.0% of the no-resize arm's benefit (4,270-4,554).

Benefit metric: ``survival_rate * achieved_quality`` — quality earned at
admission, discounted by the fraction of perturbation-affected jobs that
still met their deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.analysis.tables import format_table
from repro.resilience.events import FaultModel
from repro.resilience.reconfig import ResizePolicy
from repro.sim.metrics import RunMetrics
from repro.workloads import presets
from repro.workloads.sweep import SweepConfig, run_point
from repro.workloads.synthetic import SyntheticParams

__all__ = [
    "DEFAULT_RECONFIG_MODEL",
    "DEFAULT_RECONFIG_RATES",
    "DEFAULT_RECONFIG_COSTS",
    "ReconfigResult",
    "reconfig_benefit",
    "run_reconfig",
    "render_reconfig",
]

#: Perturbation intensities of the committed sweep (the failure rate is
#: the swept axis).  Severity 0.6 of P=32 leaves ~13 processors — narrow
#: re-plans with grow headroom once the short (100-unit) repair lands.
DEFAULT_RECONFIG_MODEL = FaultModel(
    fault_severity=0.6,
    mean_repair=100.0,
    overrun_prob=0.10,
    burst_rate=5e-5,
    burst_size=4,
)

#: Processor failures per unit virtual time.
DEFAULT_RECONFIG_RATES: tuple[float, ...] = (3e-4, 1e-3, 2e-3)

#: Fixed checkpoint term of the reconfiguration-cost model (time units
#: charged per resize before the remainder restarts).  0 isolates the
#: policy's planning value; 8 is about a third of a task's duration —
#: enough to flip marginal resizes from profitable to harmful.
DEFAULT_RECONFIG_COSTS: tuple[float, ...] = (0.0, 2.0, 8.0)

#: Machine size and arrival interval: 2x the tall task (as in the other
#: resilience experiments) and load high enough that shrink-to-admit has
#: rejections to rescue.
RECONFIG_PROCESSORS = 32
RECONFIG_INTERVAL = 35.0

#: Committed batch size.  Resize opportunities are per-event and rare by
#: design (a growable job must be mid-task when capacity frees); 300
#: arrivals keeps the full OFF + (rates x costs) grid regression-testable
#: in seconds while every committed claim already manifests.
RECONFIG_N_JOBS = 300


@dataclass(frozen=True, slots=True)
class ReconfigResult:
    """One no-resize run and one grow/shrink run per (rate, cost) cell.

    ``off[rate]`` is the ``ResizePolicy.OFF`` arm; ``on[(rate, cost)]``
    the ``GROW_SHRINK`` arm with fixed checkpoint cost ``cost``.
    """

    rates: tuple[float, ...]
    costs: tuple[float, ...]
    off: Mapping[float, RunMetrics]
    on: Mapping[tuple[float, float], RunMetrics]
    config: SweepConfig


def reconfig_benefit(metrics: RunMetrics) -> float:
    """Survival-weighted quality: the quantity the resize policy targets."""
    return metrics.resilience.get("survival_rate", 1.0) * metrics.achieved_quality


def run_reconfig(
    rates: tuple[float, ...] = DEFAULT_RECONFIG_RATES,
    costs: tuple[float, ...] = DEFAULT_RECONFIG_COSTS,
    processors: int = RECONFIG_PROCESSORS,
    interval: float = RECONFIG_INTERVAL,
    n_jobs: int = RECONFIG_N_JOBS,
    seed: int = presets.DEFAULT_SEED,
    model: FaultModel | None = None,
    params: SyntheticParams | None = None,
) -> ReconfigResult:
    """Sweep reconfiguration cost x fault rate, resize on vs off."""
    model = model or DEFAULT_RECONFIG_MODEL
    base = SweepConfig(
        params=params or presets.default_params(),
        processors=processors,
        interval=interval,
        n_jobs=n_jobs,
        seed=seed,
        malleable=True,
    )
    off: dict[float, RunMetrics] = {}
    on: dict[tuple[float, float], RunMetrics] = {}
    for rate in rates:
        rated = replace(base, faults=model.with_fault_rate(rate))
        off[float(rate)] = run_point(rated, "tunable")
        for cost in costs:
            cell = replace(
                rated,
                resize_policy=ResizePolicy.GROW_SHRINK,
                reconfig_cost=float(cost),
            )
            on[(float(rate), float(cost))] = run_point(cell, "tunable")
    return ReconfigResult(
        rates=tuple(float(r) for r in rates),
        costs=tuple(float(c) for c in costs),
        off=off,
        on=on,
        config=base,
    )


def render_reconfig(result: ReconfigResult) -> str:
    """Benefit + resize-ledger table across (fault rate, reconfig cost)."""
    rows: list[dict[str, object]] = []
    for rate in result.rates:
        baseline = result.off[rate]
        rows.append(
            {
                "fault_rate": format(rate, "g"),
                "resize": "off",
                "cost": "-",
                "admitted": baseline.admitted,
                "survival": baseline.resilience.get("survival_rate", 1.0),
                "benefit": reconfig_benefit(baseline),
                "delta": 0.0,
                "grows": 0,
                "shrinks": 0,
                "admits": 0,
                "rescues": 0,
                "resize_cost": 0.0,
            }
        )
        for cost in result.costs:
            m = result.on[(rate, cost)]
            r = m.resilience
            rows.append(
                {
                    "fault_rate": format(rate, "g"),
                    "resize": "grow+shrink",
                    "cost": format(cost, "g"),
                    "admitted": m.admitted,
                    "survival": r.get("survival_rate", 1.0),
                    "benefit": reconfig_benefit(m),
                    "delta": reconfig_benefit(m) - reconfig_benefit(baseline),
                    "grows": r.get("grows", 0),
                    "shrinks": r.get("shrinks", 0),
                    "admits": r.get("shrink_admits", 0),
                    "rescues": r.get("shrink_rescues", 0),
                    "resize_cost": r.get("resize_cost", 0.0),
                }
            )
    return format_table(
        rows,
        precision=3,
        title="extension: mid-execution malleability — grow/shrink vs "
        "no-resize (reconfig cost x fault rate)",
    )
