"""Resource requests and virtual-time arithmetic.

The paper's task model (Section 5.1, footnote 1) treats *processors* as the
managed resource: a task requests non-preemptive allocation of a specific
number of processors for a fixed amount of time.  This module defines that
request type and the epsilon-tolerant time comparisons used throughout the
scheduler.

Times are floats in *virtual* (simulated) time units.  All comparisons that
decide feasibility use a small tolerance :data:`TIME_EPS` so that chains of
float additions (e.g. repeated task finish times) do not spuriously miss
deadlines by 1 ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InvalidTaskError

__all__ = [
    "TIME_EPS",
    "time_eq",
    "time_leq",
    "time_lt",
    "time_geq",
    "ProcessorTimeRequest",
]

#: Tolerance for virtual-time comparisons.  Workload generators use values
#: that are exactly representable, so the tolerance only matters for deeply
#: chained arithmetic.
TIME_EPS: float = 1e-9


def time_eq(a: float, b: float) -> bool:
    """Return True if two virtual times are equal within :data:`TIME_EPS`."""
    if a == b:  # handles inf == inf
        return True
    return abs(a - b) <= TIME_EPS


def time_leq(a: float, b: float) -> bool:
    """Return True if ``a <= b`` within tolerance (``a`` at most ``b``)."""
    return a <= b + TIME_EPS


def time_lt(a: float, b: float) -> bool:
    """Return True if ``a < b`` strictly, beyond tolerance."""
    return a < b - TIME_EPS


def time_geq(a: float, b: float) -> bool:
    """Return True if ``a >= b`` within tolerance."""
    return a >= b - TIME_EPS


@dataclass(frozen=True, slots=True)
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
        Length of virtual time the processors are held: finite and above
        :data:`TIME_EPS`, the profile's empty-interval tolerance, so every
        accepted request can be reserved.
    """

    processors: int
    duration: float

    def __post_init__(self) -> None:
        if not isinstance(self.processors, int) or isinstance(self.processors, bool):
            raise InvalidTaskError(
                f"processor count must be an int, got {self.processors!r}"
            )
        if self.processors <= 0:
            raise InvalidTaskError(
                f"processor count must be positive, got {self.processors}"
            )
        if not (self.duration > TIME_EPS) or math.isinf(self.duration):
            raise InvalidTaskError(
                f"duration must be finite and exceed TIME_EPS ({TIME_EPS}), "
                f"got {self.duration!r}"
            )

    @property
    def area(self) -> float:
        """Total processor-time product (the request's resource 'area')."""
        return self.processors * self.duration

    def scaled_to(self, processors: int) -> "ProcessorTimeRequest":
        """Return a work-conserving reshaping of this request.

        Used by the malleable model (Section 5.4): running the same total
        work on ``processors`` CPUs takes ``area / processors`` time.  The
        paper's malleable tasks exhibit perfect (linear) speedup up to their
        degree of concurrency; sublinear models are layered on top in
        :mod:`repro.core.malleable`.
        """
        if processors <= 0:
            raise InvalidTaskError(
                f"cannot scale request to {processors} processors"
            )
        return ProcessorTimeRequest(processors, self.area / processors)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.processors}p x {self.duration:g}t"
