"""JSON archive of a sweep's raw numbers.

:func:`sweep_to_json` writes every metric of every (value, system) cell;
:func:`sweep_from_json_summary` reads one back with structural checks.
Tables render through :func:`repro.analysis.tables.format_sweep`, and
benefit series come from :meth:`~repro.workloads.sweep.SweepResult.benefit`.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError
from repro.workloads.sweep import SweepResult

__all__ = ["sweep_to_json", "sweep_from_json_summary"]


def sweep_to_json(sweep: SweepResult) -> str:
    """Archive a sweep's full metric set as JSON text."""
    payload = {
        "axis": sweep.axis,
        "values": list(sweep.values),
        "systems": list(sweep.systems),
        "metrics": {
            format(value, "g"): {
                system: sweep.rows[value][system].as_dict()
                for system in sweep.systems
            }
            for value in sweep.values
        },
        "config": {
            "processors": sweep.config.processors,
            "interval": sweep.config.interval,
            "n_jobs": sweep.config.n_jobs,
            "seed": sweep.config.seed,
            "malleable": sweep.config.malleable,
            "x": sweep.config.params.x,
            "t": sweep.config.params.t,
            "alpha": sweep.config.params.alpha,
            "laxity": sweep.config.params.laxity,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def sweep_from_json_summary(text: str) -> dict[str, object]:
    """Parse an archived sweep back into a plain summary dict.

    Returns the decoded payload after structural validation (axis, values,
    systems, metrics keys present and consistent); raw
    :class:`~repro.sim.metrics.RunMetrics` are *not* reconstructed — the
    summary is for diffing and plotting, not resumption.
    """
    payload = json.loads(text)
    for key in ("axis", "values", "systems", "metrics", "config"):
        if key not in payload:
            raise ConfigurationError(f"archived sweep missing key {key!r}")
    for value in payload["values"]:
        bucket = payload["metrics"].get(format(value, "g"))
        if bucket is None:
            raise ConfigurationError(f"archived sweep missing value {value!r}")
        for system in payload["systems"]:
            if system not in bucket:
                raise ConfigurationError(
                    f"archived sweep missing system {system!r} at {value!r}"
                )
    return payload
