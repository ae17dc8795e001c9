"""Canonical serialization and content hashing of experiment work units.

A *work unit* is the atom of experiment execution: one
:class:`~repro.workloads.sweep.SweepConfig` simulated under one task
system.  Its **unit key** is the SHA-256 digest of a canonical JSON
encoding of every field that influences the simulation outcome (the
synthetic-job parameters, machine size, arrival interval, job count,
seed, task model, strategy/policy enums, fault model and resize
settings), plus the system name and a format version.  Two units collide
exactly when they are guaranteed to produce identical :class:`~repro.sim.metrics.RunMetrics`,
which is what makes the key safe to use as a content address for the
result cache and as a dedup handle inside one batch.

Canonical form: JSON with sorted keys, no whitespace, ``allow_nan=False``
(a NaN in a config is a bug, not a cache key).  Python's ``repr``-based
float encoding is shortest-round-trip, so equal doubles always encode to
the same text.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.core.malleable import MalleableStrategy
from repro.core.policies import TieBreakPolicy
from repro.errors import ConfigurationError
from repro.resilience.events import FaultModel
from repro.resilience.reconfig import ResizePolicy
from repro.workloads.sweep import SweepConfig
from repro.workloads.synthetic import SyntheticParams

__all__ = [
    "KEY_VERSION",
    "canonical_json",
    "sweep_config_to_dict",
    "sweep_config_from_dict",
    "unit_key",
]

#: Bump when the meaning of a serialized config (or the simulation it
#: feeds) changes incompatibly; old cache entries then miss instead of
#: resurfacing stale results.  v2: SweepConfig gained the ``faults``
#: field and RunMetrics the ``resilience`` block.  v3: mid-execution
#: malleability — SweepConfig gained ``resize_policy``/``reconfig_cost``/
#: ``reconfig_cost_per_proc``, the resilience block gained the resize
#: ledger, and the renegotiation driver's overrun bookkeeping fixes
#: changed perturbed-run outcomes.  v4: the scan ``backend`` and the
#: ``prune`` switch joined the serialized config.  Decisions are
#: backend-identical, but RunMetrics carries backend-dependent perf
#: telemetry, so configs differing only in backend must not share a
#: cache slot.  v5: a sweep unit seeds its RANDOM tie-break, so a warm
#: cache must not serve an unseeded draw under a deterministic key.
#: v6: ``verify``, ``reconfig_cost_per_proc``, ``backend`` and ``prune``
#: left SweepConfig (every unit verifies, with no per-processor resize
#: cost, on the arbitrator's defaults); a payload that still carries them
#: decodes with them ignored.
KEY_VERSION = 6


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


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
    """JSON-able encoding of every outcome-relevant config field."""
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
            # Absent in pre-v3 payloads: resizing off, zero cost.
            resize_policy=ResizePolicy(data.get("resize_policy", "off")),
            reconfig_cost=float(data.get("reconfig_cost", 0.0)),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed sweep-config payload: {exc}") from exc


def unit_key(config: SweepConfig, system: str) -> str:
    """SHA-256 content address of one (config, system) work unit."""
    payload = {
        "version": KEY_VERSION,
        "system": system,
        "config": sweep_config_to_dict(config),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
