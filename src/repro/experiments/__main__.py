"""Command-line entry: ``python -m repro.experiments <id> [<id> ...]``.

Scale: ``--full-scale`` (or the ``REPRO_FULL_SCALE=1`` environment
variable) selects the paper's 10,000-arrival runs; the default is 2,000
arrivals per point (identical qualitative shapes, minutes faster).

Execution: ``--jobs N`` fans the independent (sweep point × system ×
seed) work units of every experiment out over N worker processes, and
each unit's metrics are memoized in a content-addressed on-disk cache
(``--cache-dir``, default ``.repro-cache`` or ``$REPRO_CACHE_DIR``) so
re-runs and overlapping experiments are cache hits.  ``--no-cache``
disables memoization.  Results are bit-identical whichever way the units
were executed; see :mod:`repro.runner`.

Committed output: stdout over all ids at the default scale is
``results/quick_report.txt``, which CI diffs against a fresh run.  A change
that legitimately moves a table re-mints it with ``python -m
repro.experiments --jobs 2 --no-cache > results/quick_report.txt``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.experiments.registry import (
    EXPERIMENTS,
    run_experiment,
    unknown_experiments,
)
from repro.runner import ExperimentRunner, RunnerConfig, using_runner

DEFAULT_CACHE_DIR = ".repro-cache"


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
        default=int(os.environ.get("REPRO_JOBS", "1")),
        help="worker processes for sweep/replication units "
        "(default: $REPRO_JOBS or 1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR),
        help="content-addressed result cache location "
        f"(default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
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

    runner = ExperimentRunner(
        RunnerConfig(
            jobs=max(1, args.jobs),
            cache_dir=None if args.no_cache else args.cache_dir,
        )
    )
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
        print(
            f"[runner] units={snap.get('units_total', 0)} "
            f"dedup={snap.get('dedup_hits', 0)} "
            f"cache_hits={snap.get('cache_hits', 0)} "
            f"cache_misses={snap.get('cache_misses', 0)} "
            f"pool={snap.get('units_executed_pool', 0)} "
            f"inline={snap.get('units_executed_inline', 0)} "
            f"unit_p50={snap.get('unit_p50_us', 0) / 1e3:.1f}ms "
            f"unit_p95={snap.get('unit_p95_us', 0) / 1e3:.1f}ms",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
