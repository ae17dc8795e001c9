"""Command-line entry: ``python -m repro.experiments <id> [<id> ...]``.

Scale: ``--full-scale`` (or the ``REPRO_FULL_SCALE=1`` environment
variable) selects the paper's 10,000-arrival runs; the default is 2,000
arrivals per point (identical qualitative shapes, minutes faster).

Execution: ``--jobs N`` fans the independent (sweep point × system ×
seed) work units of every experiment out over N worker processes.  One
runner serves the whole invocation and remembers each unit's metrics, so
a unit that two experiments share is simulated once; nothing is written
to disk, and the next invocation runs every unit again.  Results are
bit-identical whichever way the units were executed; see
:mod:`repro.runner`.

Committed output: stdout over all ids at the default scale is
``results/quick_report.txt``, which CI diffs against a fresh run.  A change
that legitimately moves a table re-mints it with ``python -m
repro.experiments --jobs 2 > results/quick_report.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core import kernels
from repro.experiments.registry import (
    EXPERIMENTS,
    run_experiment,
    unknown_experiments,
)
from repro.runner import ExperimentRunner, using_runner


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids (default: all). Known: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="run the paper's 10,000 arrivals per point "
        "(equivalent to REPRO_FULL_SCALE=1)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep/replication units "
        "(default: 1 = in-process)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list:
        for exp_id in sorted(EXPERIMENTS):
            print(exp_id)
        return 0

    targets = args.experiments or sorted(EXPERIMENTS)
    unknown = unknown_experiments(targets)
    if unknown:
        print(
            f"error: unknown experiment id(s): {', '.join(unknown)}",
            file=sys.stderr,
        )
        print(f"known ids: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    runner = ExperimentRunner(jobs=max(1, args.jobs))
    saved_scale = os.environ.get("REPRO_FULL_SCALE")
    try:
        if args.full_scale:
            os.environ["REPRO_FULL_SCALE"] = "1"
        with using_runner(runner):
            for exp_id in targets:
                print(f"=== {exp_id} ===")
                print(run_experiment(exp_id))
    finally:
        if args.full_scale:
            if saved_scale is None:
                os.environ.pop("REPRO_FULL_SCALE", None)
            else:
                os.environ["REPRO_FULL_SCALE"] = saved_scale

    snap = runner.perf_snapshot()
    if snap.get("units_total"):
        # A pool that died is rescued in-process: say so, and which
        # decider made the tables.
        failed = snap.get("pool_chunk_failures", 0)
        rescued = snap.get("pool_fallback_units", 0)
        print(
            f"[runner] units={snap.get('units_total', 0)} "
            f"reused={snap.get('units_reused', 0)} "
            f"pool={snap.get('units_executed_pool', 0)} "
            f"inline={snap.get('units_executed_inline', 0)} "
            f"unit_p50={snap.get('unit_p50_us', 0) / 1e3:.1f}ms "
            f"unit_p95={snap.get('unit_p95_us', 0) / 1e3:.1f}ms "
            + (
                f"pool_chunk_failures={failed} pool_fallback_units={rescued} "
                if failed or rescued else ""
            )
            + f"kernel={kernels.kernel_backend()}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
