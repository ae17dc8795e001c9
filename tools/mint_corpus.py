#!/usr/bin/env python
"""Mint (or re-mint) the committed verification corpus in ``tests/corpus/``.

Sweep entries freeze quick-scale expectations for committed experiment
points; workload entries pin hand-built cases through the full fuzz check
battery.  Run from the repo root::

    PYTHONPATH=src python tools/mint_corpus.py

Re-minting is only legitimate after an *intentional* decision-affecting
change — the whole point of the corpus is that accidental changes fail
``tests/verify/test_corpus.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.resources import ProcessorTimeRequest  # noqa: E402
from repro.model.chain import TaskChain  # noqa: E402
from repro.model.job import Job  # noqa: E402
from repro.model.task import TaskSpec  # noqa: E402
from repro.resilience.events import FaultModel  # noqa: E402
from repro.resilience.reconfig import ResizePolicy  # noqa: E402
from repro.sim.persistence import metrics_to_dict  # noqa: E402
from repro.verify.checks import audited_point  # noqa: E402
from repro.verify.fuzz import FuzzCase, check_case  # noqa: E402
from repro.workloads.sweep import SweepConfig, sweep_config_to_dict  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"

#: Metrics frozen into sweep expectations.  Response/slack stats ride along
#: implicitly via utilization/horizon; counts and quality pin decisions.
_EXPECT_KEYS = (
    "offered",
    "admitted",
    "rejected",
    "utilization",
    "achieved_quality",
    "horizon",
    "chain_usage",
)


def _write(name: str, payload: dict) -> None:
    path = CORPUS / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(CORPUS.parent.parent)}")


def mint_sweep(
    name: str,
    note: str,
    config: SweepConfig,
    system: str,
    extra_expect: tuple[str, ...] = (),
) -> None:
    metrics, report = audited_point(config, system)
    if not report.ok:
        raise SystemExit(f"{name}: refusing to mint a dirty point:\n{report.summary()}")
    full = metrics_to_dict(metrics)
    _write(
        name,
        {
            "version": 1,
            "kind": "sweep",
            "note": note,
            "config": sweep_config_to_dict(config),
            "system": system,
            "expect": {k: full[k] for k in _EXPECT_KEYS + extra_expect},
        },
    )


def mint_workload(name: str, note: str, case: FuzzCase) -> None:
    failures = check_case(case)
    if failures:
        raise SystemExit(f"{name}: case is not clean: {failures}")
    payload = case.to_dict()
    payload["note"] = note
    _write(name, payload)


def main() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    base = SweepConfig()  # quick scale: n_jobs=2000, P=16, interval=30

    mint_sweep(
        "sweep-fig5a-interval30-tunable.json",
        "Figure 5(a) default point (interval 30): tunable at quick scale",
        base,
        "tunable",
    )
    mint_sweep(
        "sweep-fig5a-interval30-shape1.json",
        "Figure 5(a) default point (interval 30): shape1 baseline",
        base,
        "shape1",
    )
    p32 = replace(base, processors=32)
    mint_sweep(
        "sweep-fig5c-p32-tunable.json",
        "Figure 5(c) P=32 — the documented P=24-36 deviation band "
        "(tunable legitimately trails shape1 here; see EXPERIMENTS.md)",
        p32,
        "tunable",
    )
    mint_sweep(
        "sweep-fig5c-p32-shape1.json",
        "Figure 5(c) P=32 — shape1's edge over tunable is frozen so a "
        "silent change in either direction fails the replay",
        p32,
        "shape1",
    )
    alpha1 = replace(base, params=base.params.with_alpha(1.0))
    mint_sweep(
        "sweep-fig5d-alpha1-tunable.json",
        "Figure 5(d) alpha=1.0 coincidence point: all three systems "
        "must make identical decisions",
        alpha1,
        "tunable",
    )
    mint_sweep(
        "sweep-fig5d-alpha1-shape1.json",
        "Figure 5(d) alpha=1.0 coincidence point, shape1 half of the pair",
        alpha1,
        "shape1",
    )
    mint_sweep(
        "sweep-fig6b-interval30-malleable-tunable.json",
        "Figure 6(b) malleable model at the interval-30 point",
        replace(base, malleable=True),
        "tunable",
    )
    mint_sweep(
        "sweep-resilience-faults-tunable.json",
        "Perturbed run (faults + overruns + bursts) through the "
        "renegotiation driver, relaxed-audited",
        replace(
            base,
            n_jobs=300,
            faults=FaultModel(
                fault_rate=0.002, overrun_prob=0.1, burst_rate=0.001
            ),
        ),
        "tunable",
    )

    # Mid-execution malleability: one entry per resize direction, pinning
    # the full resilience block (resize ledger included) so a silent change
    # in grow/shrink decisions fails the replay.  Both use the committed
    # reconfig-experiment regime (severity 0.6 of P=32, repair 100,
    # interval 35 — see repro.experiments.reconfig).
    reconfig_model = FaultModel(
        fault_severity=0.6,
        mean_repair=100.0,
        overrun_prob=0.10,
        burst_rate=5e-5,
        burst_size=4,
    )
    reconfig_base = replace(
        base, processors=32, interval=35.0, n_jobs=300, malleable=True
    )
    mint_sweep(
        "sweep-reconfig-grow-on-repair.json",
        "grow-on-repair: capacity repairs re-widen running jobs that were "
        "re-planned narrow during the degraded epoch (GROW policy only)",
        replace(
            reconfig_base,
            faults=reconfig_model.with_fault_rate(2e-3),
            resize_policy=ResizePolicy.GROW,
        ),
        "tunable",
        extra_expect=("resilience",),
    )
    mint_sweep(
        "sweep-reconfig-shrink-to-admit.json",
        "shrink-to-admit: a rejected arrival is rescued by narrowing a "
        "running donor job's in-flight task (SHRINK policy only)",
        replace(
            reconfig_base,
            faults=reconfig_model.with_fault_rate(3e-4),
            resize_policy=ResizePolicy.SHRINK,
        ),
        "tunable",
        extra_expect=("resilience",),
    )

    # Hand-minted workloads ------------------------------------------------
    def task(name, procs, dur, deadline, q=1.0, mc=None):
        return TaskSpec(
            name,
            ProcessorTimeRequest(procs, dur),
            deadline=deadline,
            quality=q,
            max_concurrency=mc if mc is not None else procs,
        )

    # Twin jobs with an internally duplicated chain: the exact tie between
    # the two copies and the identical-swap metamorphic relation both bite
    # here.
    twin_chain_a = TaskChain(
        (task("w0", 2, 4.0, 30.0), task("w1", 1, 2.0, 30.0)), label="a"
    )
    twin_chain_dup = TaskChain(twin_chain_a.tasks, label="a-dup")
    twin = Job(chains=(twin_chain_a, twin_chain_dup), release=0.0)
    twin2 = Job(chains=twin.chains, release=0.0)
    third = Job(
        chains=(TaskChain((task("x0", 3, 5.0, 12.0),), label="b"),),
        release=2.0,
    )
    mint_workload(
        "workload-dup-collapse-twins.json",
        "identical twin jobs + duplicated chain config: the exact tie "
        "between the copies and equal-arrival swap must both be "
        "decision-invisible",
        FuzzCase(capacity=4, jobs=(twin, twin2, third)),
    )

    # Malleable reshape pressure: wide requests on a narrow machine force
    # work-conserving narrowing near max_concurrency bounds.
    m1 = Job(
        chains=(
            TaskChain((task("m0", 4, 3.0, 40.0, mc=8),), label="wide"),
            TaskChain(
                (task("m1", 1, 8.0, 40.0, q=0.5, mc=2),), label="narrow"
            ),
        ),
        release=0.0,
    )
    m2 = Job(chains=m1.chains, release=1.0)
    m3 = Job(
        chains=(TaskChain((task("m2", 2, 6.0, 10.0, mc=4),), label="c"),),
        release=1.0,
    )
    mint_workload(
        "workload-malleable-reshape.json",
        "malleable reshape near max_concurrency bounds on a 4p machine",
        FuzzCase(capacity=4, jobs=(m1, m2, m3), malleable=True),
    )

    # A tight rigid instance small enough for the oracle: greedy's gap to
    # clairvoyance is bounded here on every replay.
    o1 = Job(
        chains=(
            TaskChain((task("o0", 2, 4.0, 5.0), task("o1", 2, 2.0, 8.0)), label="p0"),
            TaskChain((task("o2", 4, 2.0, 7.0),), label="p1"),
        ),
        release=0.0,
    )
    o2 = Job(chains=(TaskChain((task("o3", 3, 3.0, 6.0),), label="q0"),), release=0.0)
    o3 = Job(chains=(TaskChain((task("o4", 2, 3.0, 4.0),), label="r0"),), release=2.0)
    mint_workload(
        "workload-oracle-tight.json",
        "small tight OR-graph instance: oracle bound + full matrix on replay",
        FuzzCase(capacity=4, jobs=(o1, o2, o3)),
    )


if __name__ == "__main__":
    main()
