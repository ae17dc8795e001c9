"""End-to-end verification checks over real experiment configurations.

Consumers of this module:

* the CLI (``python -m repro.verify``): ``--oracle`` measures greedy's
  optimality gap against the exhaustive oracle;
* :mod:`repro.service.recovery`, which replays a WAL through
  :func:`verify_replay`;
* the corpus (``tools/mint_corpus.py`` mints sweep expectations with
  :func:`audited_point`, ``--replay-corpus`` re-runs them);
* the test suite.

:func:`audited_point` runs the unit :func:`repro.workloads.sweep.build_point`
assembles — the same one :func:`~repro.workloads.sweep.run_point` runs —
with placements retained and every offered job recorded, so the
independent auditor can re-validate the final schedule against the actual
job definitions, under :func:`repro.verify.auditor.audit_run`'s rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.arbitrator import QoSArbitrator
from repro.core.placement import ChainPlacement, Placement
from repro.errors import VerificationError
from repro.model.job import Job
from repro.sim.metrics import RunMetrics
from repro.verify.auditor import AuditReport, ScheduleAuditor, audit_run
from repro.verify.oracle import (
    OracleLimitError,
    OracleLimits,
    OracleSolution,
    exhaustive_best,
)
from repro.workloads.sweep import SweepConfig, _job_factory, build_point

__all__ = [
    "audited_point",
    "verify_replay",
    "GapReport",
    "greedy_vs_oracle",
    "oracle_chain_placements",
]


def audited_point(
    config: SweepConfig, system: str
) -> tuple[RunMetrics, AuditReport]:
    """Re-run one sweep unit with placements retained; audit the outcome.

    Returns the run's metrics (computed identically to
    :func:`~repro.workloads.sweep.run_point` — retaining placements does
    not perturb any reported number) together with the independent audit
    of the final schedule and of any resize records.
    """
    base_factory = _job_factory(config, system)
    offered: list[Job] = []

    def recording_factory(i: int, release: float) -> Job:
        job = base_factory(i, release)
        offered.append(job)
        return job

    simulator, arrivals = build_point(
        config, system, recording_factory, keep_placements=True
    )
    metrics = simulator.run(arrivals)
    engine = simulator.reconfig
    report = audit_run(
        simulator.arbitrator.schedule,
        offered,
        malleable=config.malleable,
        perturbed=simulator.perturbed,
        resizes=engine.records if engine is not None else (),
    )
    return metrics, report


# ---------------------------------------------------------------------------
# Crash-recovery replay verification (used by repro.service.recovery)
# ---------------------------------------------------------------------------


def _decision_fingerprint(decision) -> tuple:
    """Bit-exact ``(admitted, chain_index, ((start, width, duration), ...))``.

    Kept local (rather than importing :mod:`repro.service.wal`'s identical
    helper) so the verify layer stays import-independent of the subsystem
    it judges.
    """
    if decision.admitted and decision.placement is not None:
        cp = decision.placement
        return (
            True,
            cp.chain_index,
            tuple((p.start, p.processors, p.duration) for p in cp.placements),
        )
    return (False, None, ())


def verify_replay(
    arbitrator: QoSArbitrator,
    jobs: "list[Job]",
    expected: "list[tuple | None]",
    *,
    malleable: bool = False,
    strict: bool = True,
):
    """Serially replay ``jobs`` through a *fresh* arbitrator and judge it.

    The crash-recovery contract: re-offering the WAL's effective jobs, in
    ledger order, to an identically configured arbitrator must reproduce
    every logged decision **bit-identically** (``expected[i]`` is the
    logged fingerprint, or ``None`` for an entry the crash left undecided
    — those are decided now and simply reported back).  The recovered
    schedule is then audited by the independent
    :class:`~repro.verify.auditor.ScheduleAuditor`.

    Returns ``(decisions, report)``; with ``strict`` (the default) any
    fingerprint mismatch or audit violation raises
    :class:`~repro.errors.VerificationError` — recovery must never hand
    back a schedule it cannot prove is the pre-crash one.
    """
    if len(jobs) != len(expected):
        raise VerificationError(
            f"replay: {len(jobs)} jobs but {len(expected)} expected decisions"
        )
    decisions = []
    mismatches: list[str] = []
    for index, (job, want) in enumerate(zip(jobs, expected)):
        decision = arbitrator.submit(job)
        decisions.append(decision)
        if want is not None:
            got = _decision_fingerprint(decision)
            if tuple(got) != tuple(want):
                mismatches.append(
                    f"  entry {index} (job {job.job_id!r}): logged {want!r}, "
                    f"replayed {got!r}"
                )
    if mismatches and strict:
        raise VerificationError(
            "WAL replay diverged from the logged ledger — recovered state "
            "is NOT the pre-crash schedule:\n" + "\n".join(mismatches)
        )
    report = ScheduleAuditor(malleable=malleable).audit(
        arbitrator.schedule, list(jobs)
    )
    if not report.ok and strict:
        raise VerificationError(
            "recovered schedule failed its independent audit:\n"
            + report.summary()
        )
    return decisions, report


# ---------------------------------------------------------------------------
# Oracle vs greedy
# ---------------------------------------------------------------------------


def oracle_chain_placements(
    solution: OracleSolution, jobs: list[Job]
) -> list[ChainPlacement]:
    """Rebuild auditor-checkable chain placements from an oracle solution."""
    by_id = {job.job_id: job for job in jobs}
    out: list[ChainPlacement] = []
    for job_id, chain_index in solution.admitted.items():
        job = by_id[job_id]
        chain = job.chains[chain_index]
        mine = sorted(
            (p for p in solution.placements if p.job_id == job_id),
            key=lambda p: p.task_index,
        )
        out.append(
            ChainPlacement(
                job_id=job_id,
                chain_index=chain_index,
                chain=chain,
                placements=tuple(
                    Placement(
                        chain.tasks[p.task_index],
                        p.start,
                        p.processors,
                        p.end - p.start,
                    )
                    for p in mine
                ),
                release=job.release,
            )
        )
    return out


@dataclass(frozen=True, slots=True)
class GapReport:
    """Greedy-vs-oracle outcome over a batch of random instances."""

    instances: int
    compared: int
    skipped: int  # oracle out of budget
    exact: int  # greedy matched the optimum
    max_gap: int
    mean_gap: float
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no instance violated the optimality bound."""
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"oracle-vs-greedy: {self.compared}/{self.instances} instances "
            f"compared ({self.skipped} beyond oracle budget)",
            f"  greedy exact on {self.exact}/{self.compared}; "
            f"max gap {self.max_gap} job(s), mean gap {self.mean_gap:.3f}",
        ]
        lines += [f"  FAILURE: {f}" for f in self.failures]
        return "\n".join(lines)


def greedy_vs_oracle(
    instances: int,
    seed: int,
    *,
    max_jobs: int = 5,
    limits: OracleLimits | None = None,
) -> GapReport:
    """Compare greedy admission with the exhaustive optimum.

    For each random rigid instance: greedy must never admit more jobs than
    the oracle (that would prove one of them wrong), and the oracle's own
    placements must pass the independent auditor.  Gap statistics measure
    how far greedy's online decisions fall short of clairvoyance.
    """
    import random

    from repro.verify.fuzz import random_case, run_case

    limits = limits or OracleLimits(max_nodes=400_000)
    rng = random.Random(seed)
    compared = skipped = exact = 0
    max_gap, gap_sum = 0, 0
    failures: list[str] = []
    for index in range(instances):
        case = random_case(rng, max_jobs=max_jobs, malleable=False)
        try:
            solution = exhaustive_best(list(case.jobs), case.capacity, limits)
        except OracleLimitError:
            skipped += 1
            continue
        compared += 1
        (decisions, _), _audit = run_case(case, audit=False)
        greedy_admitted = sum(1 for d in decisions if d[0])
        gap = solution.admitted_count - greedy_admitted
        if gap < 0:
            failures.append(
                f"instance {index} (case {case.case_id}): greedy admitted "
                f"{greedy_admitted} > optimum {solution.admitted_count}"
            )
            continue
        if gap == 0:
            exact += 1
        max_gap = max(max_gap, gap)
        gap_sum += gap
        oracle_report = ScheduleAuditor().audit_placements(
            oracle_chain_placements(solution, list(case.jobs)),
            case.capacity,
            list(case.jobs),
        )
        if not oracle_report.ok:
            failures.append(
                f"instance {index} (case {case.case_id}): oracle schedule "
                f"failed audit: {oracle_report.summary()}"
            )
    return GapReport(
        instances=instances,
        compared=compared,
        skipped=skipped,
        exact=exact,
        max_gap=max_gap,
        mean_gap=(gap_sum / compared) if compared else math.nan,
        failures=tuple(failures),
    )
