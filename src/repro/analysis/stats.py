"""Summary statistics for experiment repetitions.

The paper reports single 10,000-arrival runs; for the scaled-down defaults
this module adds seed-replication confidence intervals so a shape claim
read off one seeded run is not fooled by one lucky seed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["mean_ci", "bootstrap_ci", "relative_benefit"]


def mean_ci(
    samples: Sequence[float], confidence: float = 0.95
) -> tuple[float, float, float]:
    """Mean and Student-t confidence interval ``(mean, lo, hi)``.

    With a single sample the interval degenerates to the point.
    """
    # Here, not at module level: ``import repro`` reaches this module, and
    # scipy would otherwise load into every service and runner process.
    from scipy import stats as sps

    if not samples:
        raise ConfigurationError("mean_ci requires at least one sample")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean, mean)
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    if sem == 0:
        return (mean, mean, mean)
    half = float(sps.t.ppf(0.5 + confidence / 2, df=arr.size - 1)) * sem
    return (mean, mean - half, mean + half)


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Percentile-bootstrap CI of the mean ``(mean, lo, hi)``."""
    if not samples:
        raise ConfigurationError("bootstrap_ci requires at least one sample")
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean, mean)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1 - confidence) / 2
    lo, hi = np.quantile(means, [alpha, 1 - alpha])
    return (mean, float(lo), float(hi))


def relative_benefit(tunable: float, baseline: float) -> float:
    """Fractional improvement of ``tunable`` over ``baseline``.

    Returns ``(tunable - baseline) / baseline``; 0 when the baseline is 0
    and the tunable value is too, ``inf`` when only the baseline is 0.
    """
    if baseline == 0:
        return 0.0 if tunable == 0 else math.inf
    return (tunable - baseline) / baseline
