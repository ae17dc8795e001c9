"""Perturbation traces: the fault model as a reproducible event stream.

Section 3.1 describes an arbitrator that "monitors system resources, and
triggers renegotiation on detecting a significant change in resource
levels (e.g., on a fault, or when new resources become available)", yet
the Section 5 experiments assume a fault-free fixed-capacity machine.
This module makes resource-level change first-class: a
:class:`PerturbationTrace` is a deterministic, timestamped record of

* **capacity events** — processor failures and recoveries, expressed as a
  piecewise-constant machine-capacity trace;
* **overruns** — per-job execution-time overruns relative to the declared
  request (the "wide variations in processing speeds" of Section 2 seen
  from the reservation side);
* **arrival bursts** — extra job arrivals injected at one instant.

Traces are generated from :class:`~repro.sim.rng.RandomStreams`
substreams, so they are reproducible bit-for-bit and *CRN-pairable*: the
tunable and rigid task systems compared at one sweep point see the
identical fault sequence, exactly as they see identical arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.resources import checked_time
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams

__all__ = [
    "CapacityEvent",
    "OverrunEvent",
    "BurstEvent",
    "PerturbationTrace",
    "FaultModel",
    "generate_trace",
]


def _check_finite(value: float, what: str) -> None:
    if math.isnan(value) or math.isinf(value):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class CapacityEvent:
    """The machine has ``new_capacity`` processors from ``time`` onward.

    A failure is an event lowering capacity; a recovery is one raising it.
    Consecutive events form the piecewise-constant capacity trace.
    """

    time: float
    new_capacity: int

    def __post_init__(self) -> None:
        time = checked_time(self.time, "capacity event time", ConfigurationError)
        if type(self.time) is not float:
            object.__setattr__(self, "time", time)
        if self.new_capacity <= 0:
            raise ConfigurationError(
                f"new_capacity must be positive, got {self.new_capacity}"
            )


@dataclass(frozen=True, slots=True)
class OverrunEvent:
    """Arrival ``job_seq``'s task at ``task_index`` runs ``factor``x long.

    The overrun is *latent* until the task's reserved finish time passes
    without completion — that instant is when the simulator detects it and
    the driver renegotiates the job's remaining work.  ``task_index`` is
    clamped to the granted chain's length (trace generation does not know
    which path admission will choose).
    """

    job_seq: int
    task_index: int
    factor: float

    def __post_init__(self) -> None:
        if self.job_seq < 0:
            raise ConfigurationError(f"job_seq must be >= 0, got {self.job_seq}")
        if self.task_index < 0:
            raise ConfigurationError(
                f"task_index must be >= 0, got {self.task_index}"
            )
        _check_finite(self.factor, "overrun factor")
        if not self.factor > 1.0:
            raise ConfigurationError(
                f"overrun factor must exceed 1, got {self.factor}"
            )


@dataclass(frozen=True, slots=True)
class BurstEvent:
    """``count`` extra job arrivals injected at ``time``."""

    time: float
    count: int

    def __post_init__(self) -> None:
        time = checked_time(self.time, "burst time", ConfigurationError)
        if type(self.time) is not float:
            object.__setattr__(self, "time", time)
        if time < 0:
            raise ConfigurationError(f"burst time must be >= 0, got {self.time}")
        if self.count <= 0:
            raise ConfigurationError(f"burst count must be positive, got {self.count}")


@dataclass(frozen=True, slots=True)
class PerturbationTrace:
    """A complete, validated perturbation schedule for one run.

    Attributes
    ----------
    capacity_events:
        Piecewise-constant capacity changes, strictly increasing in time.
    overruns:
        At most one latent overrun per arrival sequence number.
    bursts:
        Extra-arrival injections, non-decreasing in time.
    """

    capacity_events: tuple[CapacityEvent, ...] = ()
    overruns: tuple[OverrunEvent, ...] = ()
    bursts: tuple[BurstEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacity_events", tuple(self.capacity_events))
        object.__setattr__(self, "overruns", tuple(self.overruns))
        object.__setattr__(self, "bursts", tuple(self.bursts))
        for a, b in zip(self.capacity_events, self.capacity_events[1:]):
            if not b.time > a.time:
                raise ConfigurationError(
                    f"capacity events must be strictly increasing in time "
                    f"({a.time} then {b.time})"
                )
        seqs = [o.job_seq for o in self.overruns]
        if len(seqs) != len(set(seqs)):
            raise ConfigurationError("at most one overrun per arrival sequence")
        for a, b in zip(self.bursts, self.bursts[1:]):
            if b.time < a.time:
                raise ConfigurationError("burst times must be non-decreasing")

    @property
    def empty(self) -> bool:
        """True when the trace perturbs nothing (the fault-free baseline)."""
        return not (self.capacity_events or self.overruns or self.bursts)

    def overruns_by_seq(self) -> Mapping[int, OverrunEvent]:
        """Index the latent overruns by arrival sequence number."""
        return {o.job_seq: o for o in self.overruns}

    def capacity_at(self, t: float, base_capacity: int) -> int:
        """Machine capacity at instant ``t`` under this trace."""
        cap = base_capacity
        for ev in self.capacity_events:
            if ev.time <= t:
                cap = ev.new_capacity
            else:
                break
        return cap

    def capacity_lost(self, base_capacity: int, horizon: float) -> float:
        """Processor-time removed by faults over ``[0, horizon]``.

        The integral of ``max(0, base - capacity(t))`` — extra capacity
        gained above the base (the "new resources" direction) does not
        offset losses.
        """
        if horizon <= 0 or not self.capacity_events:
            return 0.0
        lost = 0.0
        prev_t, prev_cap = 0.0, base_capacity
        for ev in self.capacity_events:
            t = min(max(ev.time, 0.0), horizon)
            lost += max(0, base_capacity - prev_cap) * (t - prev_t)
            prev_t, prev_cap = t, ev.new_capacity
            if ev.time >= horizon:
                break
        lost += max(0, base_capacity - prev_cap) * (horizon - prev_t)
        return lost


@dataclass(frozen=True, slots=True)
class FaultModel:
    """Stochastic perturbation intensities, the input to :func:`generate_trace`.

    Attributes
    ----------
    fault_rate:
        Processor-failure events per unit virtual time (Poisson).
    fault_severity:
        Fraction of the *base* capacity removed by each failure (at least
        one processor); overlapping failures stack, floored at one live
        processor.
    mean_repair:
        Mean outage duration (exponential); failed processors return
        afterwards.
    overrun_prob:
        Probability that any given arrival carries a latent execution-time
        overrun.
    overrun_excess:
        Mean of the overrun factor's excess over 1 (exponential), i.e. the
        factor is ``1 + Exp(overrun_excess)``.
    burst_rate:
        Arrival-burst events per unit virtual time (Poisson).
    burst_size:
        Extra arrivals injected per burst.
    """

    fault_rate: float = 0.0
    fault_severity: float = 0.25
    mean_repair: float = 500.0
    overrun_prob: float = 0.0
    overrun_excess: float = 0.5
    burst_rate: float = 0.0
    burst_size: int = 4

    def __post_init__(self) -> None:
        for name in ("fault_rate", "overrun_prob", "burst_rate"):
            value = getattr(self, name)
            _check_finite(value, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.overrun_prob > 1:
            raise ConfigurationError(
                f"overrun_prob must be <= 1, got {self.overrun_prob}"
            )
        if not 0 < self.fault_severity <= 1:
            raise ConfigurationError(
                f"fault_severity must be in (0, 1], got {self.fault_severity}"
            )
        if not self.mean_repair > 0:
            raise ConfigurationError(
                f"mean_repair must be positive, got {self.mean_repair}"
            )
        if not self.overrun_excess > 0:
            raise ConfigurationError(
                f"overrun_excess must be positive, got {self.overrun_excess}"
            )
        if self.burst_size <= 0:
            raise ConfigurationError(
                f"burst_size must be positive, got {self.burst_size}"
            )

    @property
    def empty(self) -> bool:
        """True when no perturbation can ever be generated."""
        return (
            self.fault_rate == 0
            and self.overrun_prob == 0
            and self.burst_rate == 0
        )

    def with_fault_rate(self, fault_rate: float) -> "FaultModel":
        """Copy with a different failure rate (the ``fault_rate`` sweep axis)."""
        return replace(self, fault_rate=float(fault_rate))


def _poisson_times(rng, rate: float, horizon: float) -> list[float]:
    """Event times of a Poisson process with ``rate`` over ``(0, horizon]``."""
    times: list[float] = []
    if rate <= 0 or horizon <= 0:
        return times
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t > horizon:
            return times
        times.append(t)


def _capacity_events(
    model: FaultModel, rng, horizon: float, base_capacity: int
) -> tuple[CapacityEvent, ...]:
    """Failure/recovery pairs merged into a piecewise-constant trace."""
    deltas: list[tuple[float, int]] = []
    for t_fail in _poisson_times(rng, model.fault_rate, horizon):
        down = max(1, round(model.fault_severity * base_capacity))
        repair = float(rng.exponential(model.mean_repair))
        deltas.append((t_fail, -down))
        deltas.append((t_fail + repair, down))
    if not deltas:
        return ()
    deltas.sort()
    events: list[CapacityEvent] = []
    raw = base_capacity
    effective = base_capacity
    i = 0
    while i < len(deltas):
        t = deltas[i][0]
        while i < len(deltas) and deltas[i][0] == t:
            raw += deltas[i][1]
            i += 1
        new_effective = max(1, raw)
        if new_effective != effective:
            effective = new_effective
            events.append(CapacityEvent(t, effective))
    return tuple(events)


def generate_trace(
    model: FaultModel,
    streams: RandomStreams,
    horizon: float,
    base_capacity: int,
    n_arrivals: int,
) -> PerturbationTrace:
    """Draw a deterministic perturbation trace from named substreams.

    Substream names (``perturb-capacity``, ``perturb-overrun``,
    ``perturb-burst``) are disjoint from the arrival streams, so adding
    faults to a run never perturbs its arrival sequence — and two systems
    sharing a master seed share the identical trace (common random
    numbers across the tunability comparison).

    ``horizon`` bounds capacity/burst event generation; ``n_arrivals``
    bounds the sequence numbers eligible for latent overruns (burst
    arrivals, numbered beyond the base arrivals, never overrun).
    """
    if math.isnan(horizon) or math.isinf(horizon) or horizon < 0:
        raise ConfigurationError(f"horizon must be finite and >= 0, got {horizon!r}")
    if base_capacity <= 0:
        raise ConfigurationError(
            f"base_capacity must be positive, got {base_capacity}"
        )
    if n_arrivals < 0:
        raise ConfigurationError(f"n_arrivals must be >= 0, got {n_arrivals}")
    if model.empty:
        return PerturbationTrace()

    capacity = _capacity_events(
        model, streams.numpy("perturb-capacity"), horizon, base_capacity
    )

    overruns: list[OverrunEvent] = []
    if model.overrun_prob > 0 and n_arrivals > 0:
        rng = streams.numpy("perturb-overrun")
        hits = rng.random(n_arrivals) < model.overrun_prob
        # Draw the per-hit shape variates unconditionally so a changed
        # overrun_prob never re-shuffles which factor a given job gets.
        factors = 1.0 + rng.exponential(model.overrun_excess, size=n_arrivals)
        task_indices = rng.integers(0, 4, size=n_arrivals)
        for seq in range(n_arrivals):
            if hits[seq]:
                overruns.append(
                    OverrunEvent(seq, int(task_indices[seq]), float(factors[seq]))
                )

    bursts: Sequence[BurstEvent] = ()
    if model.burst_rate > 0:
        rng = streams.numpy("perturb-burst")
        bursts = tuple(
            BurstEvent(t, model.burst_size)
            for t in _poisson_times(rng, model.burst_rate, horizon)
        )

    return PerturbationTrace(
        capacity_events=capacity,
        overruns=tuple(overruns),
        bursts=tuple(bursts),
    )
