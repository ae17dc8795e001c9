"""Resource requests and the one time base.

The paper's task model (Section 5.1, footnote 1) treats *processors* as the
managed resource: a task requests non-preemptive allocation of a specific
number of processors for a fixed amount of time.  This module defines that
request type and the range every virtual time of the model lives in.

Times are binary64 floats in *virtual* (simulated) time units, compared
exactly: no comparison that decides a placement carries a tolerance.  A
reservation ``[start, start + duration)`` ends at the float ``start +
duration`` as computed once, and every later test against it (a run
covering a task, a deadline, a tie between two finishes) compares that
same float, so equal means equal.  The profile does no arithmetic on
breakpoints at all, which makes ``reserve`` and ``release`` exact inverses.
Only the pruning filters (``GreedyScheduler._area_reject`` and the
zero-gap quick checks) keep a small slack: they compare sums accumulated
in another order than the first-fit walk they stand in for, so on an
exactly tight fit they can round past it.

What the constructors guarantee is the range of each time they are given.
:func:`checked_time` is the one gate: ``ProcessorTimeRequest``,
``TaskSpec``, ``Job`` and ``CapacityEvent`` pass each time through it
once, where it enters the model, and it refuses NaN, an infinity where a
finite time is required, and any magnitude at or beyond
:data:`TIME_LIMIT`.  (The model's constructors take a ``float`` already
inside their range without the call; anything else goes through it.)
Below that limit a binary64 value has a unit in the last place of at most
:data:`TIME_STEP`, and the shortest accepted duration is one step, so an
interval that starts below the limit is never empty.  The gate bounds
each time alone, not sums of them: a release near the limit plus a
relative deadline, or a chain with no deadline, can end beyond it.  Such
schedules are valid; only a task of a few steps starting past the limit
can round to an empty interval, which the profile refuses with
``SchedulingError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import InvalidTaskError

__all__ = [
    "TIME_STEP",
    "TIME_LIMIT",
    "checked_time",
    "slot_setters",
    "ProcessorTimeRequest",
]

#: The shortest accepted duration, and the largest gap between adjacent
#: binary64 values below :data:`TIME_LIMIT`.
TIME_STEP: float = 2.0**-30
#: Every time a constructor accepts has a magnitude below this:
#: ``2**(53 - 30)``, where binary64 values are ``TIME_STEP`` apart.  It
#: leaves 8x headroom over the largest finite time that reaches a
#: comparison in the committed data, release plus final deadline: 855,693
#: on the full-scale report, 800,226 on the e2e workloads at full size
#: (``fig4``) and 60,070 in the corpus.  Areas are not bounded by it, and
#: nothing claims they are exact: the largest free-area prefix is 652,231
#: on the full-scale report and 2,746 in the corpus, and at most 64 x
#: 60,250 (capacity times the longest deadline window) on the e2e
#: workloads; both deciders compute the same floats.
TIME_LIMIT: float = 2.0**23


def checked_time(
    value: float, what: str, error: type[Exception], *, allow_inf: bool = False
) -> float:
    """``value`` as a Python ``float`` inside the model's time range.

    Raises ``error`` for NaN, for an infinity (unless ``allow_inf`` and
    the value is ``+inf``) and for a finite magnitude at or beyond
    :data:`TIME_LIMIT`.  Converting once here is what makes a NumPy
    ``float32`` time account in binary64 like every other time.
    """
    t = float(value)
    if -TIME_LIMIT < t < TIME_LIMIT or (allow_inf and t == math.inf):
        return t
    raise error(
        f"{what} must be {'below' if allow_inf else 'finite and below'} "
        f"2**23 in magnitude, got {value!r}"
    )


def slot_setters(cls: type) -> tuple:
    """Each field's slot-descriptor ``__set__``, in field order.

    The generated ``__init__`` of a frozen dataclass stores every field by
    name through ``object.__setattr__``, which costs about as much as the
    checks themselves.  So the records built once per job or per decision
    (``ProcessorTimeRequest``, the model's ``TaskSpec``, ``TaskChain`` and
    ``Job``, and the decision path's ``Placement``, ``ChainPlacement`` and
    ``AdmissionDecision``) write their own ``__init__`` (``init=False``)
    and store through these.  Assignment and ``del`` still raise
    ``FrozenInstanceError``.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class ProcessorTimeRequest:
    """A non-preemptive request for ``processors`` CPUs for ``duration`` time.

    This is the ``resource-request`` of the paper's ``task`` construct
    (Section 4.2): "a processor-time tuple, denoting the number of processors
    required for the task and the time duration they are required for".

    Attributes
    ----------
    processors:
        Positive integer number of processors required simultaneously.
    duration:
        Length of virtual time the processors are held: at least
        :data:`TIME_STEP` and inside the range of :func:`checked_time`, so
        a request that starts below :data:`TIME_LIMIT` reserves a
        non-empty interval.
    """

    processors: int
    duration: float

    def __init__(self, processors: int, duration: float) -> None:
        if not isinstance(processors, int) or isinstance(processors, bool):
            raise InvalidTaskError(
                f"processor count must be an int, got {processors!r}"
            )
        if processors <= 0:
            raise InvalidTaskError(
                f"processor count must be positive, got {processors}"
            )
        if not (type(duration) is float and TIME_STEP <= duration < TIME_LIMIT):
            checked = checked_time(duration, "duration", InvalidTaskError)
            if checked < TIME_STEP:
                raise InvalidTaskError(
                    f"duration must be at least 2**-30, got {duration!r}"
                )
            duration = checked
        _set_processors(self, processors)
        _set_duration(self, duration)

    @property
    def area(self) -> float:
        """Total processor-time product (the request's resource 'area')."""
        return self.processors * self.duration

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.processors}p x {self.duration:g}t"


_set_processors, _set_duration = slot_setters(ProcessorTimeRequest)
