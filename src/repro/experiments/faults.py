"""Extension experiment: graceful degradation under an online fault stream.

The trace-driven generalization of :mod:`repro.experiments.survival`: where
that experiment renegotiates one capacity drop over a pre-admitted
batch, this one runs the full online loop — Poisson processor failures
with exponential repair, latent execution-time overruns and arrival
bursts, all drawn from seed-derived substreams (identical across the three
task systems at each sweep point: common random numbers) — while jobs keep
arriving.  Swept axis: the processor failure rate.

Expected shape: the tunable system's survival rate dominates both rigid
shapes'.  A tunable job hit by a fault or an overrun before completing any
task can be re-admitted on its *other* path (the ``path_switches``
column), while a rigid job has only its one shape's remaining slack;
``shape1`` (tall-first) suffers most because a shrunken machine or a
dilated first task leaves the 16-wide task nowhere to go.

The machine is 2x the tall task (P=32) as in the survival experiment, and
the default severity removes 12 processors per failure, so a fault leaves
the tall task feasible but unpackable next to other work — the regime
where *ordering* flexibility matters.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.resilience.events import FaultModel
from repro.workloads import presets
from repro.workloads.sweep import SweepConfig, SweepResult, run_sweep
from repro.workloads.synthetic import SyntheticParams

__all__ = [
    "DEFAULT_FAULT_MODEL",
    "DEFAULT_FAULT_RATES",
    "run_faults",
    "render_faults",
]

#: Perturbation intensities of the committed default sweep (the failure
#: rate itself is the swept axis).  Calibrated so the tunable system's
#: survival rate dominates both rigid shapes' at every committed rate —
#: regression-tested in tests/resilience/test_faults_experiment.py.
DEFAULT_FAULT_MODEL = FaultModel(
    fault_severity=0.375,
    mean_repair=300.0,
    overrun_prob=0.10,
    burst_rate=5e-5,
    burst_size=4,
)

#: Processor failures per unit virtual time (0 = overruns/bursts only).
DEFAULT_FAULT_RATES: tuple[float, ...] = (0.0, 1e-4, 3e-4, 6e-4)

#: Machine size and arrival interval: 2x the tall task, moderate load
#: (offered utilization ~0.5) so all three systems admit comparably and
#: the comparison isolates *surviving* perturbations, not initial packing.
FAULTS_PROCESSORS = 32
FAULTS_INTERVAL = 50.0


def run_faults(
    rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    processors: int = FAULTS_PROCESSORS,
    interval: float = FAULTS_INTERVAL,
    n_jobs: int | None = None,
    seed: int = presets.DEFAULT_SEED,
    model: FaultModel | None = None,
    params: SyntheticParams | None = None,
) -> SweepResult:
    """Sweep the failure rate across the three task systems."""
    config = SweepConfig(
        params=params or presets.default_params(),
        processors=processors,
        interval=interval,
        n_jobs=min(presets.n_jobs(n_jobs), 2_000),
        seed=seed,
        faults=model or DEFAULT_FAULT_MODEL,
    )
    return run_sweep("fault_rate", rates, config)


def render_faults(result: SweepResult) -> str:
    """Survival/degradation table across fault rates and systems."""
    rows: list[dict[str, object]] = []
    for value in result.values:
        for system in result.systems:
            m = result.rows[value][system]
            r = m.resilience
            rows.append(
                {
                    # Rendered as text: rates like 1e-4 vanish at the
                    # table's fixed decimal precision.
                    "fault_rate": format(value, "g"),
                    "system": system,
                    "admitted": m.admitted,
                    "affected": r.get("affected", 0),
                    "survived": r.get("survived", 0),
                    "degraded": r.get("degraded", 0),
                    "dropped": r.get("dropped", 0),
                    "misses": r.get("deadline_misses", 0),
                    "switches": r.get("path_switches", 0),
                    "survival": r.get("survival_rate", 1.0),
                    "util": m.utilization,
                    "wasted": r.get("wasted_work", 0.0),
                }
            )
    return format_table(
        rows,
        precision=3,
        title="extension: online fault stream — survival by tunability "
        "(capacity faults x overruns x bursts)",
    )
