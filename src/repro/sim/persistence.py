"""JSON persistence for jobs, arrival traces and run metrics.

Replication plumbing: a workload (job templates + exact arrival times) can
be archived and re-run bit-for-bit elsewhere, and run metrics can be
archived alongside for diffing.  The format is plain JSON with a version
tag; unknown versions are rejected loudly.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from repro.core.resources import ProcessorTimeRequest
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.sim.metrics import RunMetrics

__all__ = [
    "chain_to_dict",
    "chain_from_dict",
    "job_to_dict",
    "job_from_dict",
    "dump_workload",
    "load_workload",
    "metrics_to_dict",
    "metrics_from_dict",
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


def dump_workload(jobs: list[Job], note: str = "") -> str:
    """Archive a complete arrival sequence as JSON text."""
    payload = {
        "version": FORMAT_VERSION,
        "note": note,
        "jobs": [job_to_dict(j) for j in jobs],
    }
    return json.dumps(payload, indent=2)


def load_workload(text: str) -> list[Job]:
    """Load an archived workload; jobs come back in release order."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported workload format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    jobs = [job_from_dict(j) for j in payload["jobs"]]
    for a, b in zip(jobs, jobs[1:]):
        if b.release < a.release:
            raise ConfigurationError(
                "archived workload is not in release order"
            )
    return jobs


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


def metrics_from_dict(data: Mapping[str, object]) -> RunMetrics:
    """Reconstruct run metrics serialized by :func:`metrics_to_dict`."""
    if data.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported metrics format version {data.get('version')!r}"
        )

    def fget(key: str) -> float:
        value = data[key]
        return math.nan if value is None else float(value)  # type: ignore[arg-type]

    return RunMetrics(
        offered=int(data["offered"]),  # type: ignore[arg-type]
        admitted=int(data["admitted"]),  # type: ignore[arg-type]
        rejected=int(data["rejected"]),  # type: ignore[arg-type]
        utilization=fget("utilization"),
        mean_response=fget("mean_response"),
        p95_response=fget("p95_response"),
        mean_slack=fget("mean_slack"),
        chain_usage={
            int(k): int(v)
            for k, v in data["chain_usage"].items()  # type: ignore[union-attr]
        },
        achieved_quality=fget("achieved_quality"),
        horizon=fget("horizon"),
        # Absent in archives written before the resilience subsystem.
        resilience=dict(data.get("resilience") or {}),  # type: ignore[arg-type]
    )
