"""Ablations for the design choices DESIGN.md calls out (not in the paper).

* tie-break policy: the Section 5.2 rule vs simpler alternatives;
* malleable strategy: the two readings of "starting from the highest
  number of processors";
* hole-selection rule: first fit vs best fit;
* admission conservatism: trusting the negotiated path vs requiring every
  path schedulable;
* arrival-process robustness: Poisson vs bursty arrivals.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.tables import format_table
from repro.core.arbitrator import QoSArbitrator
from repro.core.baselines import BestFitScheduler
from repro.core.malleable import MalleableStrategy
from repro.core.policies import ArbitrationObjective, TieBreakPolicy
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator, simulate_arrivals
from repro.workloads import SweepConfig, presets
from repro.workloads.sweep import _job_factory, run_point

__all__ = [
    "ablation_policy",
    "ablation_malleable_strategy",
    "ablation_fit_rule",
    "ablation_conservative",
    "ablation_bursty",
]


def _base() -> SweepConfig:
    return SweepConfig(n_jobs=presets.n_jobs(), seed=presets.DEFAULT_SEED)


def ablation_policy() -> str:
    """Tie-break policy comparison on the tunable system."""
    rows = []
    for policy in TieBreakPolicy:
        cfg = replace(_base(), policy=policy)
        m = run_point(cfg, "tunable")
        rows.append(
            {
                "policy": policy.value,
                "throughput": m.throughput,
                "utilization": m.utilization,
                "mean_response": m.mean_response,
            }
        )
    return format_table(rows, title="ablation: tie-break policy (tunable system)")


def ablation_malleable_strategy() -> str:
    """The two malleable placement strategies, all three systems."""
    rows = []
    for strategy in MalleableStrategy:
        cfg = replace(_base(), malleable=True, strategy=strategy)
        for system in ("tunable", "shape1", "shape2"):
            m = run_point(cfg, system)
            rows.append(
                {
                    "strategy": strategy.value,
                    "system": system,
                    "throughput": m.throughput,
                    "utilization": m.utilization,
                }
            )
    return format_table(rows, title="ablation: malleable strategy")


def ablation_fit_rule() -> str:
    """First fit (the paper) vs best fit over maximal holes.

    Best fit re-enumerates holes per task and is orders of magnitude
    slower, so this ablation caps the arrival count.
    """
    n = min(presets.n_jobs(), 400)
    cfg = replace(_base(), n_jobs=n)
    rows = []
    for label, use_best_fit in (("first-fit", False), ("best-fit", True)):
        arb = QoSArbitrator(cfg.processors, keep_placements=False)
        if use_best_fit:
            arb.scheduler = BestFitScheduler(arb.schedule, policy=cfg.policy)
        streams = RandomStreams(cfg.seed)
        metrics = simulate_arrivals(
            arb,
            lambda i, release: cfg.params.tunable_job(release),
            PoissonArrivals(cfg.interval, streams),
            cfg.n_jobs,
        )
        rows.append(
            {
                "rule": label,
                "throughput": metrics.throughput,
                "utilization": metrics.utilization,
            }
        )
    return format_table(rows, title=f"ablation: fit rule (n={n} arrivals)")


def ablation_conservative() -> str:
    """Negotiated admission vs all-paths-schedulable conservatism."""
    cfg = _base()
    rows = []
    for label, objective in (
        ("negotiated", ArbitrationObjective.EARLIEST_FINISH),
        ("conservative", ArbitrationObjective.CONSERVATIVE),
    ):
        arb = QoSArbitrator(
            cfg.processors, objective=objective, keep_placements=False
        )
        streams = RandomStreams(cfg.seed)
        metrics = simulate_arrivals(
            arb,
            lambda i, release: cfg.params.tunable_job(release),
            PoissonArrivals(cfg.interval, streams),
            cfg.n_jobs,
        )
        rows.append(
            {
                "admission": label,
                "throughput": metrics.throughput,
                "utilization": metrics.utilization,
            }
        )
    return format_table(rows, title="ablation: admission conservatism")


def ablation_bursty() -> str:
    """Does the tunability benefit survive bursty (non-Poisson) arrivals?"""
    cfg = _base()
    rows = []
    for label, make_process in (
        (
            "poisson",
            lambda streams: PoissonArrivals(cfg.interval, streams),
        ),
        (
            "bursty",
            lambda streams: BurstyArrivals(
                burst_interval=cfg.interval / 3,
                calm_interval=cfg.interval * 5 / 3,
                streams=streams,
            ),
        ),
    ):
        for system in ("tunable", "shape1", "shape2"):
            arb = QoSArbitrator(cfg.processors, keep_placements=False)
            streams = RandomStreams(cfg.seed)
            metrics = simulate_arrivals(
                arb, _job_factory(cfg, system), make_process(streams), cfg.n_jobs
            )
            rows.append(
                {
                    "arrivals": label,
                    "system": system,
                    "throughput": metrics.throughput,
                    "utilization": metrics.utilization,
                }
            )
    return format_table(rows, title="ablation: arrival-process robustness")
