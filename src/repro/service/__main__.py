"""Demo CLI: drive the admission service, crash it, recover, and prove it.

::

    PYTHONPATH=src python -m repro.service --jobs 32 --kill-after 10

runs a seeded workload through a live service, optionally kills it
mid-flight, recovers from the WAL, finishes every interrupted request,
and prints the honest counters plus the recovery verdict.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.service.chaos import ChaosScenario, _drive, _finish, chaos_workload
from repro.service.recovery import recover


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Admission-service crash/recovery demo.",
    )
    parser.add_argument("--jobs", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--malleable", action="store_true")
    parser.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="N",
        help="kill the service after N acked decisions (default: run clean)",
    )
    parser.add_argument(
        "--wal",
        type=Path,
        default=None,
        help="WAL directory (default: a temporary one)",
    )
    args = parser.parse_args(argv)

    scenario = ChaosScenario(
        name="demo",
        seed=args.seed,
        n_jobs=args.jobs,
        malleable=args.malleable,
        crash_after_acks=args.kill_after,
        graceful=args.kill_after is None,
    )
    rng = random.Random(scenario.seed)
    capacity, jobs = chaos_workload(rng, scenario.n_jobs, scenario.malleable)
    config = scenario.config(capacity)
    calm = replace(
        config,
        queue_limit=4 * scenario.n_jobs + 16,
        shed_thresholds=(9.0,),
        degrade_occupancy=9.0,
        checkpoint_every=0,
    )

    with tempfile.TemporaryDirectory() as tmp:
        wal_dir = args.wal if args.wal is not None else Path(tmp)
        acked, stats, crash, _dups = asyncio.run(
            _drive(scenario, config, wal_dir, jobs, rng)
        )
        print(
            f"[service] capacity={capacity} jobs={len(jobs)} crash={crash} "
            f"acked={int(stats['acked'])} batches={int(stats['batches'])} "
            f"retries={int(stats['retries'])}"
        )
        state = recover(wal_dir, calm)
        print(
            f"[recover] ledger={len(state.entries)} redecided={state.redecided} "
            f"torn_bytes={state.truncated_bytes} "
            f"audit={'clean' if state.report.ok else 'VIOLATIONS'} "
            "(replay bit-identical: verified)"
        )
        outcomes = asyncio.run(_finish(calm, wal_dir, state, jobs))
        admitted = sum(1 for o in outcomes if o.admitted)
        final = recover(wal_dir, calm)
        print(
            f"[finish]  {admitted}/{len(jobs)} admitted; final ledger "
            f"{len(final.entries)} entries, audit "
            f"{'clean' if final.report.ok else 'VIOLATIONS'}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
