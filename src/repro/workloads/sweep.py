"""Parameter-sweep harness for the Figure 5/6 experiments.

A sweep runs the three task systems of Section 5.3 — ``tunable`` (both
configurations), ``shape1`` and ``shape2`` (one apiece) — across one varied
parameter while all others stay fixed, with **common random numbers**: every
system at a given sweep point sees the identical Poisson arrival sequence,
so measured differences are purely scheduling, not sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.core.arbitrator import QoSArbitrator
from repro.core.malleable import MalleableStrategy
from repro.core.policies import TieBreakPolicy
from repro.errors import ConfigurationError, WorkloadError
from repro.model.job import Job
from repro.resilience.events import FaultModel, generate_trace
from repro.resilience.reconfig import ReconfigCostModel, ReconfigEngine, ResizePolicy
from repro.sim.arrivals import PoissonArrivals
from repro.sim.metrics import RunMetrics
from repro.sim.rng import RandomStreams
from repro.sim.simulator import ArrivalSimulator
from repro.workloads import presets
from repro.workloads.synthetic import SyntheticParams

__all__ = [
    "SYSTEMS",
    "SweepConfig",
    "SweepResult",
    "build_point",
    "run_point",
    "run_sweep",
    "sweep_config_from_dict",
    "sweep_config_to_dict",
]

#: The three task systems compared throughout Section 5.
SYSTEMS: tuple[str, ...] = ("tunable", "shape1", "shape2")


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Everything needed to reproduce one experiment point or sweep.

    ``axis`` names the swept parameter: one of ``"interval"``, ``"laxity"``,
    ``"processors"``, ``"alpha"``, ``"fault_rate"``, ``"reconfig_cost"``.

    ``faults`` perturbs the run with a trace drawn from the given
    :class:`~repro.resilience.events.FaultModel` (:mod:`repro.resilience`);
    ``None`` (or an all-zero-rate model) is the fault-free run.

    ``resize_policy``/``reconfig_cost`` enable mid-execution grow/shrink of
    running malleable jobs (:mod:`repro.resilience.reconfig`); any enabled
    direction attaches a resize engine to the point's simulator, whose
    event loop fires the resize events.  ``reconfig_cost`` is the fixed
    checkpoint term of the :class:`~repro.resilience.reconfig.ReconfigCostModel`.

    Every unit runs the arbitrator's default search and backend and checks
    its schedule's invariants as it goes.

    Who sets each field off its default (a knob with no such user goes):

    * ``params``: tables ``fig5b``, ``fig5d``, ``fig6a``, ``fig6b``
      (the laxity and alpha axes).
    * ``processors``: tables ``fig5c``, ``reconfig``.
    * ``interval``: tables ``fig5a``, ``fig6a``, ``fig6b``, ``reconfig``.
    * ``n_jobs``: tables ``ablation-fit``, ``reconfig``; every table at
      ``--full-scale``.
    * ``seed``: the nightly ``tools/resize_campaign.py``.
    * ``malleable``: tables ``fig6b``, ``ablation-malleable``, ``reconfig``.
    * ``strategy``: table ``ablation-malleable``.
    * ``policy``: table ``ablation-policy``.
    * ``faults``: tables ``faults``, ``reconfig``.
    * ``resize_policy``: table ``reconfig``.
    * ``reconfig_cost``: table ``reconfig``.
    """

    params: SyntheticParams = field(default_factory=presets.default_params)
    processors: int = presets.DEFAULT_PROCESSORS
    interval: float = presets.DEFAULT_INTERVAL
    n_jobs: int = presets.N_JOBS_QUICK
    seed: int = presets.DEFAULT_SEED
    malleable: bool = False
    strategy: MalleableStrategy = MalleableStrategy.WIDEST_FIRST_FEASIBLE
    policy: TieBreakPolicy = TieBreakPolicy.PAPER
    faults: FaultModel | None = None
    resize_policy: ResizePolicy = ResizePolicy.OFF
    reconfig_cost: float = 0.0

    @property
    def resizing(self) -> bool:
        """Whether this config exercises mid-execution resizing at all."""
        return self.malleable and self.resize_policy is not ResizePolicy.OFF

    def reconfig_engine(self) -> ReconfigEngine | None:
        """Fresh resize engine for one run, or ``None`` when inert."""
        if not self.resizing:
            return None
        return ReconfigEngine(self.resize_policy, ReconfigCostModel(self.reconfig_cost))

    def with_axis(self, axis: str, value: float) -> "SweepConfig":
        """Copy of this config with ``axis`` set to ``value``."""
        if axis == "interval":
            return replace(self, interval=float(value))
        if axis == "laxity":
            return replace(self, params=self.params.with_laxity(float(value)))
        if axis == "processors":
            return replace(self, processors=int(value))
        if axis == "alpha":
            return replace(self, params=self.params.with_alpha(float(value)))
        if axis == "fault_rate":
            model = self.faults if self.faults is not None else FaultModel()
            return replace(self, faults=model.with_fault_rate(float(value)))
        if axis == "reconfig_cost":
            return replace(self, reconfig_cost=float(value))
        raise WorkloadError(f"unknown sweep axis {axis!r}")


def _params_to_dict(params: SyntheticParams) -> dict[str, object]:
    return {
        "x": params.x,
        "t": params.t,
        "alpha": params.alpha,
        "laxity": params.laxity,
        "concurrency_factor": params.concurrency_factor,
    }


def _params_from_dict(data: Mapping[str, object]) -> SyntheticParams:
    return SyntheticParams(
        x=int(data["x"]),  # type: ignore[arg-type]
        t=float(data["t"]),  # type: ignore[arg-type]
        alpha=float(data["alpha"]),  # type: ignore[arg-type]
        laxity=float(data["laxity"]),  # type: ignore[arg-type]
        concurrency_factor=float(data["concurrency_factor"]),  # type: ignore[arg-type]
    )


def _faults_to_dict(model: FaultModel | None) -> dict[str, object] | None:
    if model is None:
        return None
    return {
        "fault_rate": model.fault_rate,
        "fault_severity": model.fault_severity,
        "mean_repair": model.mean_repair,
        "overrun_prob": model.overrun_prob,
        "overrun_excess": model.overrun_excess,
        "burst_rate": model.burst_rate,
        "burst_size": model.burst_size,
    }


def _faults_from_dict(data: Mapping[str, object] | None) -> FaultModel | None:
    if data is None:
        return None
    return FaultModel(
        fault_rate=float(data["fault_rate"]),  # type: ignore[arg-type]
        fault_severity=float(data["fault_severity"]),  # type: ignore[arg-type]
        mean_repair=float(data["mean_repair"]),  # type: ignore[arg-type]
        overrun_prob=float(data["overrun_prob"]),  # type: ignore[arg-type]
        overrun_excess=float(data["overrun_excess"]),  # type: ignore[arg-type]
        burst_rate=float(data["burst_rate"]),  # type: ignore[arg-type]
        burst_size=int(data["burst_size"]),  # type: ignore[arg-type]
    )


def sweep_config_to_dict(config: SweepConfig) -> dict[str, object]:
    """JSON-able encoding of every field (the corpus archives units so)."""
    return {
        "params": _params_to_dict(config.params),
        "processors": config.processors,
        "interval": config.interval,
        "n_jobs": config.n_jobs,
        "seed": config.seed,
        "malleable": config.malleable,
        "strategy": config.strategy.value,
        "policy": config.policy.value,
        "faults": _faults_to_dict(config.faults),
        "resize_policy": config.resize_policy.value,
        "reconfig_cost": config.reconfig_cost,
    }


def sweep_config_from_dict(data: Mapping[str, object]) -> SweepConfig:
    """Reconstruct a config serialized by :func:`sweep_config_to_dict`.

    Keys of fields SweepConfig no longer has (``verify`` and
    ``reconfig_cost_per_proc`` in the committed corpus) are ignored.
    """
    try:
        return SweepConfig(
            params=_params_from_dict(data["params"]),  # type: ignore[arg-type]
            processors=int(data["processors"]),  # type: ignore[arg-type]
            interval=float(data["interval"]),  # type: ignore[arg-type]
            n_jobs=int(data["n_jobs"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            malleable=bool(data["malleable"]),
            strategy=MalleableStrategy(data["strategy"]),
            policy=TieBreakPolicy(data["policy"]),
            faults=_faults_from_dict(data.get("faults")),  # type: ignore[arg-type]
            # Absent in payloads older than the resize fields: resizing
            # off, zero cost.
            resize_policy=ResizePolicy(data.get("resize_policy", "off")),
            reconfig_cost=float(data.get("reconfig_cost", 0.0)),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed sweep-config payload: {exc}") from exc


def _job_factory(config: SweepConfig, system: str) -> Callable[[int, float], Job]:
    params = config.params
    if system == "tunable":
        return lambda i, release: params.tunable_job(release)
    if system == "shape1":
        return lambda i, release: params.rigid_job(1, release)
    if system == "shape2":
        return lambda i, release: params.rigid_job(2, release)
    raise WorkloadError(f"unknown task system {system!r}; expected one of {SYSTEMS}")


def build_point(
    config: SweepConfig,
    system: str,
    job_factory: Callable[[int, float], Job] | None = None,
    keep_placements: bool = False,
) -> tuple[ArrivalSimulator, list[float]]:
    """Assemble one sweep unit: its simulator and its arrival times.

    The one place a unit's arbitrator, arrivals, trace and resize engine
    are built: :func:`run_point` runs the result, and
    :func:`repro.verify.checks.audited_point` runs it with a recording
    ``job_factory`` and ``keep_placements=True`` (which changes no
    reported number) and audits it.  The perturbation trace is drawn
    after the arrivals and the RANDOM tie-break's seed from a third
    substream, so arrivals match the fault-free run exactly.  An enabled
    resize policy attaches a resize engine (only the ``tunable`` system is
    malleable, so rigid systems never resize).  A perturbed unit always retains placements: they are
    the renegotiation input.
    """
    factory = job_factory or _job_factory(config, system)
    streams = RandomStreams(config.seed)
    arrivals = list(PoissonArrivals(config.interval, streams).times(config.n_jobs))
    trace = None
    if config.faults is not None and not config.faults.empty:
        trace = generate_trace(
            config.faults,
            streams,
            horizon=(arrivals[-1] if arrivals else 0.0) + config.params.d2,
            base_capacity=config.processors,
            n_arrivals=config.n_jobs,
        )
    engine = config.reconfig_engine()
    arbitrator = QoSArbitrator(
        config.processors,
        malleable=config.malleable,
        strategy=config.strategy,
        policy=config.policy,
        keep_placements=keep_placements or trace is not None or engine is not None,
        seed=streams.python("tie-break").getrandbits(64),
    )
    simulator = ArrivalSimulator(arbitrator, factory, trace=trace, reconfig=engine)
    return simulator, arrivals


def run_point(config: SweepConfig, system: str) -> RunMetrics:
    """Simulate one task system at one configuration point."""
    simulator, arrivals = build_point(config, system)
    return simulator.run(arrivals)


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Results of one sweep: ``rows[value][system] -> RunMetrics``."""

    axis: str
    values: tuple[float, ...]
    systems: tuple[str, ...]
    rows: Mapping[float, Mapping[str, RunMetrics]]
    config: SweepConfig

    def series(self, system: str, metric: str) -> list[float]:
        """Extract one metric across the sweep for one system."""
        return [
            float(self.rows[v][system].as_dict()[metric]) for v in self.values
        ]

    def benefit(self, metric: str, over: str) -> list[float]:
        """Tunable-minus-baseline difference series (Figure 6's quantity)."""
        tun = self.series("tunable", metric)
        base = self.series(over, metric)
        return [a - b for a, b in zip(tun, base)]

    def to_rows(self) -> list[dict[str, object]]:
        """Flat per-(value, system) dicts for table rendering."""
        out: list[dict[str, object]] = []
        for v in self.values:
            for s in self.systems:
                row: dict[str, object] = {"axis": self.axis, "value": v, "system": s}
                row.update(self.rows[v][s].as_dict())
                out.append(row)
        return out


def run_sweep(
    axis: str,
    values: Sequence[float],
    config: SweepConfig | None = None,
    systems: Sequence[str] = SYSTEMS,
    runner: "object | None" = None,
) -> SweepResult:
    """Run every system at every value of the swept parameter.

    All systems at a given value share the same arrival sequence (identical
    seed and interval); different values reuse the same seed too, so the
    interval axis is the only source of arrival variation along a sweep.

    ``runner`` is an :class:`repro.runner.ExperimentRunner`; the default
    is the installed one (the CLI's, for one invocation), else a fresh
    serial runner for this call alone.  Every (value, system) pair is one
    independent work unit, so parallel execution and the runner's memo
    cannot perturb common-random-numbers pairing: each unit's arrivals
    depend only on its own config.  Units are merged back in grid order, making
    the result identical however they were scheduled.
    """
    from repro.runner import get_default_runner  # local: avoids an import cycle

    config = config or SweepConfig()
    active = runner if runner is not None else get_default_runner()
    point_cfgs = [config.with_axis(axis, value) for value in values]
    units = [(cfg, system) for cfg in point_cfgs for system in systems]
    metrics = active.run_units(units)  # type: ignore[attr-defined]
    rows: dict[float, dict[str, RunMetrics]] = {}
    flat = iter(metrics)
    for value in values:
        rows[float(value)] = {system: next(flat) for system in systems}
    return SweepResult(
        axis=axis,
        values=tuple(float(v) for v in values),
        systems=tuple(systems),
        rows=rows,
        config=config,
    )
