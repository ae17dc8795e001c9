#!/usr/bin/env python
"""Nightly malleable-resize campaign: verified grow/shrink under rotation.

Runs the committed reconfig fault regime across many seeds with
per-event checking (after every resize the simulator re-checks the
schedule's profile invariants and capacity and every live placement's
release, precedence and deadlines) and cross-checks the resize ledger's
internal consistency plus the disabled-engine identity on each seed.
A PR gate affords one seed (see bench-smoke's resize-sweep step); the
nightly sweep rotates the base seed so the fuzzed surface keeps moving.

    PYTHONPATH=src python tools/resize_campaign.py --seeds 20 --base-seed 7
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience.events import FaultModel  # noqa: E402
from repro.resilience.reconfig import ResizePolicy  # noqa: E402
from repro.workloads.sweep import SweepConfig, run_point  # noqa: E402


def campaign_config(seed: int) -> SweepConfig:
    return SweepConfig(
        n_jobs=300,
        processors=32,
        interval=35.0,
        seed=seed,
        malleable=True,
        resize_policy=ResizePolicy.GROW_SHRINK,
        faults=FaultModel(
            fault_rate=1e-3,
            fault_severity=0.6,
            mean_repair=100.0,
            overrun_prob=0.10,
            burst_rate=5e-5,
            burst_size=4,
        ),
    )


def check_seed(seed: int) -> list[str]:
    failures: list[str] = []
    config = campaign_config(seed)
    # After each resize the simulator runs driver.check_consistency():
    # profile invariants and capacity, and every live placement's
    # release, precedence and deadlines.  Raises on the first violation.
    on = run_point(config, "tunable")
    r = on.resilience
    if r["resizes"] != r["grows"] + r["shrinks"]:
        failures.append(f"seed {seed}: resize count mismatch: {r}")
    if r["grows"] > r["grow_attempts"]:
        failures.append(f"seed {seed}: more grows than attempts: {r}")
    if r["shrinks"] > r["shrink_attempts"]:
        failures.append(f"seed {seed}: more shrinks than attempts: {r}")
    if r["shrink_admits"] + r["shrink_rescues"] != r["shrinks"]:
        failures.append(f"seed {seed}: shrink outcomes don't sum: {r}")
    if r["resizes"] and r["resize_wasted"] < 0.0:
        failures.append(f"seed {seed}: negative resize waste: {r}")
    off = run_point(
        replace(config, resize_policy=ResizePolicy.OFF), "tunable"
    )
    if off.resilience["resizes"] != 0 or off.resilience["resize_cost"] != 0.0:
        failures.append(
            f"seed {seed}: disabled engine resized: {off.resilience}"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args()

    failures: list[str] = []
    for i in range(args.seeds):
        failures += check_seed(args.base_seed + i)
    print(
        f"resize campaign: {args.seeds} seed(s) from {args.base_seed}, "
        f"{len(failures)} failure(s)"
    )
    for failure in failures:
        print(f"  FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
