"""JSON persistence for jobs and run metrics.

Replication plumbing: a job serializes exactly (the verification corpus
archives whole workloads of them through
:class:`repro.verify.fuzz.FuzzCase`), and run metrics are encoded for
diffing (a corpus sweep entry compares its expected numbers against
:func:`metrics_to_dict` of a fresh run).  Metrics carry a version tag.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.sim.metrics import RunMetrics

__all__ = [
    "chain_to_dict",
    "chain_from_dict",
    "job_to_dict",
    "job_from_dict",
    "metrics_to_dict",
]

FORMAT_VERSION = 1


def _task_to_dict(task: TaskSpec) -> dict[str, object]:
    return {
        "name": task.name,
        "processors": task.processors,
        "duration": task.duration,
        "deadline": None if math.isinf(task.deadline) else task.deadline,
        "quality": task.quality,
        "max_concurrency": task.max_concurrency,
    }


def _task_from_dict(data: Mapping[str, object]) -> TaskSpec:
    deadline = data["deadline"]
    return TaskSpec(
        str(data["name"]),
        ProcessorTimeRequest(int(data["processors"]), float(data["duration"])),  # type: ignore[arg-type]
        deadline=math.inf if deadline is None else float(deadline),  # type: ignore[arg-type]
        quality=float(data["quality"]),  # type: ignore[arg-type]
        max_concurrency=int(data["max_concurrency"]),  # type: ignore[arg-type]
    )


def chain_to_dict(chain: TaskChain) -> dict[str, object]:
    """Serialize one OR-path (label, params, tasks)."""
    return {
        "label": chain.label,
        "params": dict(chain.params) if chain.params else None,
        "tasks": [_task_to_dict(t) for t in chain.tasks],
    }


def chain_from_dict(data: Mapping[str, object]) -> TaskChain:
    """Reconstruct a chain serialized by :func:`chain_to_dict`."""
    return TaskChain(
        tuple(_task_from_dict(t) for t in data["tasks"]),  # type: ignore[union-attr]
        label=str(data.get("label", "")),
        params=data.get("params"),  # type: ignore[arg-type]
    )


def job_to_dict(job: Job) -> dict[str, object]:
    """Serialize one job (identity, release, all chains)."""
    return {
        "job_id": job.job_id,
        "release": job.release,
        "name": job.name,
        "chains": [chain_to_dict(chain) for chain in job.chains],
    }


def job_from_dict(data: Mapping[str, object]) -> Job:
    """Reconstruct a job serialized by :func:`job_to_dict`."""
    return Job(
        chains=tuple(chain_from_dict(c) for c in data["chains"]),  # type: ignore[union-attr]
        release=float(data["release"]),  # type: ignore[arg-type]
        job_id=int(data["job_id"]),  # type: ignore[arg-type]
        name=str(data.get("name", "")),
    )


def metrics_to_dict(metrics: RunMetrics) -> dict[str, object]:
    """Serialize run metrics (NaN-safe: NaN becomes null)."""
    out: dict[str, object] = {"version": FORMAT_VERSION}
    for key, value in metrics.as_dict().items():
        if key.startswith("resilience_"):
            continue  # nested below, like chain_usage
        if isinstance(value, float) and math.isnan(value):
            out[key] = None
        else:
            out[key] = value
    out["chain_usage"] = {str(k): v for k, v in metrics.chain_usage.items()}
    out["resilience"] = dict(metrics.resilience)
    return out
