"""Seeded differential / metamorphic fuzzing of the admission stack.

One fuzz *case* is a random workload (capacity + release-ordered jobs,
rigid or malleable).  For each case the harness:

1. **Differential identity** — runs the full decision matrix
   (the two scans × prune modes, per tie-break policy) and asserts every
   combination produces the *bit-identical* decision sequence: admissions,
   chain choices, every task's (start, width, duration).  This is the
   repo's standing claim (PR 4's prune-exactness proofs, the back-end
   equivalence contract) tested on random instances instead of fixed axes.
2. **Auditor cleanliness** — every run's committed schedule passes the
   independent :class:`~repro.verify.auditor.ScheduleAuditor`.
3. **Metamorphic checks** —
   * inserting a trivially inadmissible job changes no other decision;
   * scaling every time by ``k`` (releases, durations, deadlines) scales
     the schedule by ``k`` and leaves decisions and utilization unchanged;
   * swapping two *identical* jobs arriving at the same instant leaves the
     decision sequence unchanged (only a RANDOM tie-break may legitimately
     see submission order beyond identity, which is why the differential
     matrix pins its seed).
4. **Oracle bound** — on small rigid cases, the exhaustive oracle must
   admit at least as many jobs as greedy (greedy beating the "optimum"
   would prove one of them invalid).
5. **Batch identity** — :meth:`QoSArbitrator.admit_batch` over the whole
   case replays bit-identical to the serial submit loop, per policy.
   Which arm is which: ``submit`` is a batch of one through the C
   admission loop on every back-end but ``"scalar"``, so under
   ``REPRO_KERNEL=compiled`` (CI runs both) the ``"auto"`` arm of the
   differential matrix, the ``"auto"`` serial runs of the metamorphic and
   batch checks and every batched run are **C** for the deterministic
   rigid policies, and the ``"scalar"`` arm is the **reference**:
   :class:`GreedyScheduler` over the Python walk.  The matrix pits the
   two against each other case by case; RANDOM, malleable and
   ``REPRO_KERNEL=python`` runs are Python on every arm.
   A share of the campaign's cases are *floods* (:func:`random_flood`:
   tens to hundreds of jobs from a few shapes) that get this check
   alone: the C loop skips what an earlier probe of the same call ruled
   out, and a case of six jobs never probes one shape twice.

On failure the case is **shrunk** — jobs removed, chains dropped, chain
tails truncated, greedily to a local minimum that still fails — and the
minimal reproducer is persisted as JSON (see :func:`persist_failure`) into
``tests/corpus/``, where ``tests/verify/test_corpus.py`` replays every
entry forever after.

Everything is deterministic given ``seed``: generation draws from one
``random.Random`` and the checks themselves are derandomized (fixed
insertion point, fixed scale factor, fixed arbitrator seed for the RANDOM
policy), so CI failures reproduce locally by seed alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.core.arbitrator import QoSArbitrator
from repro.core.policies import TieBreakPolicy
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.sim.persistence import job_from_dict, job_to_dict
from repro.verify.auditor import ScheduleAuditor
from repro.verify.oracle import OracleLimitError, OracleLimits, exhaustive_best

__all__ = [
    "CORPUS_VERSION",
    "FuzzCase",
    "FuzzReport",
    "random_case",
    "random_flood",
    "run_case",
    "check_case",
    "shrink",
    "persist_failure",
    "load_case",
    "fuzz",
]

CORPUS_VERSION = 1

#: Fixed arbitrator seed for the RANDOM tie-break inside the matrix: all
#: combinations must draw the same stream for identity to be meaningful.
_RANDOM_POLICY_SEED = 1234

#: Back-ends under differential test: the reference (``GreedyScheduler``
#: over the scalar walk) against ``"auto"`` — whole decisions in the C
#: loop when it is compiled and takes the policy, the reference again
#: otherwise (CI runs the campaign under both ``REPRO_KERNEL`` settings).
_BACKENDS: tuple[str, ...] = ("scalar", "auto")

#: Deterministic policies checked by the order-metamorphic test.
_POLICIES: tuple[TieBreakPolicy, ...] = (
    TieBreakPolicy.PAPER,
    TieBreakPolicy.FIRST,
    TieBreakPolicy.PREFIX,
    TieBreakPolicy.RANDOM,
)

#: Oracle is consulted only below this many jobs (rigid cases only).
_ORACLE_MAX_JOBS = 6

#: Every this-many-th case of a campaign is a flood (:func:`random_flood`).
_FLOOD_EVERY = 20


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FuzzCase:
    """One reproducible workload: capacity, model, release-ordered jobs."""

    capacity: int
    jobs: tuple[Job, ...]
    malleable: bool = False
    note: str = ""

    def to_dict(self) -> dict[str, object]:
        """Serializable form (jobs via :func:`repro.sim.persistence`)."""
        return {
            "version": CORPUS_VERSION,
            "kind": "workload",
            "note": self.note,
            "capacity": self.capacity,
            "malleable": self.malleable,
            "jobs": [job_to_dict(j) for j in self.jobs],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "FuzzCase":
        return FuzzCase(
            capacity=int(data["capacity"]),  # type: ignore[arg-type]
            jobs=tuple(job_from_dict(j) for j in data["jobs"]),  # type: ignore[union-attr]
            malleable=bool(data.get("malleable", False)),
            note=str(data.get("note", "")),
        )

    @property
    def case_id(self) -> str:
        """Content hash identifying the workload (ignores the note)."""
        payload = self.to_dict()
        payload.pop("note", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _nice(rng: random.Random, lo_halves: int, hi_halves: int) -> float:
    """A random multiple of 0.5 — exact in floats, so checks test logic."""
    return rng.randint(lo_halves, hi_halves) / 2


def _random_chain(
    rng: random.Random, capacity: int, malleable: bool, tag: str
) -> TaskChain:
    n_tasks = rng.randint(1, 3)
    tasks: list[TaskSpec] = []
    elapsed = 0.0
    for t in range(n_tasks):
        # Mostly feasible widths; occasionally over-wide to exercise
        # rejection paths (and malleable shrinking).
        procs = rng.randint(1, capacity + (1 if rng.random() < 0.15 else 0))
        duration = _nice(rng, 1, 16)
        elapsed += duration
        # Deadline at least the zero-gap finish sometimes (tight), usually
        # looser; occasionally impossible (tight beyond the chain prefix).
        slack = _nice(rng, 0, 24) if rng.random() < 0.8 else -_nice(rng, 1, 4)
        deadline = max(elapsed + slack, 0.5)
        quality = rng.randint(1, 4) / 4
        max_conc = procs + (rng.randint(0, capacity) if malleable else 0)
        tasks.append(
            TaskSpec(
                f"{tag}t{t}",
                ProcessorTimeRequest(procs, duration),
                deadline=deadline,
                quality=quality,
                max_concurrency=max_conc,
            )
        )
    return TaskChain(tuple(tasks), label=tag)


def random_case(
    rng: random.Random,
    *,
    max_jobs: int = 6,
    malleable: bool = False,
) -> FuzzCase:
    """Draw one random workload (release-ordered, nice times)."""
    capacity = rng.randint(2, 8)
    n_jobs = rng.randint(1, max_jobs)
    jobs: list[Job] = []
    release = 0.0
    for j in range(n_jobs):
        if jobs and rng.random() < 0.25:
            # Identical twin at the same instant: exercises duplicate
            # collapse and the order-permutation metamorphic relation.
            prev = jobs[-1]
            jobs.append(Job(chains=prev.chains, release=prev.release))
            continue
        release += _nice(rng, 0, 12)
        n_chains = rng.randint(1, 3)
        chains = [
            _random_chain(rng, capacity, malleable, f"j{j}c{c}")
            for c in range(n_chains)
        ]
        if n_chains > 1 and rng.random() < 0.2:
            # Duplicate configuration inside one job: the duplicate-collapse
            # prune must stay decision-invisible.
            chains[-1] = TaskChain(
                chains[0].tasks, label=chains[0].label + "-dup"
            )
        jobs.append(Job(chains=tuple(chains), release=release))
    return FuzzCase(capacity=capacity, jobs=tuple(jobs), malleable=malleable)


def random_flood(
    rng: random.Random,
    *,
    min_jobs: int = 20,
    max_jobs: int = 200,
) -> FuzzCase:
    """Draw one campaign flood: many small jobs cut from a few shapes.

    Two to six ``(width, duration)`` shapes make up two to five job
    templates of one or two alternative chains, each chain one or two
    tasks with lax (the backlog grows deep before anything is refused)
    or tight deadlines; arrivals outpace the machine.  Probes therefore
    repeat — same or pointwise-harder shape, later release — which is
    what the batched C loop's no-fit facts feed on and what
    :func:`random_case`'s handful of jobs never does.
    """
    capacity = rng.randint(2, 8)
    shapes = [
        (rng.randint(1, capacity), _nice(rng, 1, 16))
        for _ in range(rng.randint(2, 6))
    ]

    def chain(tag: str) -> TaskChain:
        lax = rng.random() < 0.5
        tasks: list[TaskSpec] = []
        elapsed = 0.0
        for t in range(rng.randint(1, 2)):
            procs, duration = rng.choice(shapes)
            elapsed += duration
            slack = _nice(rng, 40, 400) if lax else _nice(rng, 0, 6)
            tasks.append(
                TaskSpec(
                    f"{tag}t{t}",
                    ProcessorTimeRequest(procs, duration),
                    deadline=elapsed + slack,
                    quality=rng.randint(1, 4) / 4,
                )
            )
        return TaskChain(tuple(tasks), label=tag)

    templates = [
        tuple(chain(f"f{k}c{c}") for c in range(rng.randint(1, 2)))
        for k in range(rng.randint(2, 5))
    ]
    jobs: list[Job] = []
    release = 0.0
    for _ in range(rng.randint(min_jobs, max_jobs)):
        release += _nice(rng, 0, 2)
        jobs.append(Job(chains=rng.choice(templates), release=release))
    return FuzzCase(capacity=capacity, jobs=tuple(jobs))


# ---------------------------------------------------------------------------
# Running one configuration and digesting its decisions
# ---------------------------------------------------------------------------


def run_case(
    case: FuzzCase,
    *,
    backend: str = "auto",
    prune: bool = True,
    policy: TieBreakPolicy = TieBreakPolicy.PAPER,
    audit: bool = True,
    batch: bool = False,
) -> tuple[tuple, list[str]]:
    """Submit the case's jobs through one arbitrator configuration.

    Returns ``(digest, failures)``: the digest is a hashable decision
    fingerprint (per-job admission, chain index and exact placements, plus
    utilization), and ``failures`` holds auditor violations, if any.

    ``batch`` decides the jobs in one ``admit_batch`` call instead of one
    ``submit`` each — the compiled one-call fast path when the kernel
    layer resolves to ``compiled`` and the configuration supports it, the
    serial path otherwise — whose contract is a bit-identical digest.
    """
    arbitrator = QoSArbitrator(
        case.capacity,
        malleable=case.malleable,
        backend=backend,
        prune=prune,
        policy=policy,
        seed=_RANDOM_POLICY_SEED,
        keep_placements=True,
    )
    if batch:
        made = arbitrator.admit_batch(list(case.jobs))
    else:
        made = [arbitrator.submit(job) for job in case.jobs]
    decisions = []
    for decision in made:
        if decision.admitted and decision.placement is not None:
            cp = decision.placement
            decisions.append(
                (
                    True,
                    cp.chain_index,
                    tuple(
                        (pl.start, pl.processors, pl.duration)
                        for pl in cp.placements
                    ),
                )
            )
        else:
            decisions.append((False, None, ()))
    digest = (tuple(decisions), arbitrator.utilization())
    failures: list[str] = []
    if audit:
        report = ScheduleAuditor(malleable=case.malleable).audit(
            arbitrator.schedule, case.jobs
        )
        if not report.ok:
            failures.append(
                f"audit[{'batch,' if batch else ''}{backend},prune={prune},"
                f"{policy.value}]: "
                + "; ".join(str(v) for v in report.violations[:4])
            )
    return digest, failures


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def differential_failures(case: FuzzCase) -> list[str]:
    """Back-end × prune decision identity (per policy) + audit cleanliness."""
    failures: list[str] = []
    policies = _POLICIES if not case.malleable else (TieBreakPolicy.PAPER,)
    for policy in policies:
        reference = None
        reference_combo = ""
        for backend in _BACKENDS:
            for prune in (True, False):
                digest, audit_fails = run_case(
                    case, backend=backend, prune=prune, policy=policy
                )
                failures.extend(audit_fails)
                combo = f"{backend},prune={prune},{policy.value}"
                if reference is None:
                    reference, reference_combo = digest, combo
                elif digest != reference:
                    failures.append(
                        f"decision divergence under {policy.value}: "
                        f"{combo} != {reference_combo}"
                    )
    return failures


def _impossible_job(release: float) -> Job:
    """A job no scheduler model can admit (1p x 50t due in 0.5t)."""
    chain = TaskChain(
        (
            TaskSpec(
                "impossible",
                ProcessorTimeRequest(1, 50.0),
                deadline=0.5,
                max_concurrency=1,
            ),
        ),
        label="impossible",
    )
    return Job(chains=(chain,), release=release)


def _scaled_job(job: Job, k: float) -> Job:
    chains = tuple(
        TaskChain(
            tuple(
                TaskSpec(
                    t.name,
                    ProcessorTimeRequest(t.processors, t.duration * k),
                    deadline=t.deadline * k,
                    quality=t.quality,
                    max_concurrency=t.max_concurrency,
                )
                for t in chain.tasks
            ),
            label=chain.label,
            params=chain.params,
        )
        for chain in job.chains
    )
    return Job(chains=chains, release=job.release * k, job_id=job.job_id)


def metamorphic_failures(case: FuzzCase) -> list[str]:
    """The three metamorphic relations, checked deterministically."""
    failures: list[str] = []
    base, _ = run_case(case, audit=False)
    base_decisions, base_util = base

    # 1. Inserting an inadmissible job (mid-sequence, at an existing
    #    release so ordering is preserved) changes no other decision.
    if case.jobs:
        mid = len(case.jobs) // 2
        extra = _impossible_job(case.jobs[mid].release)
        augmented = replace(
            case,
            jobs=case.jobs[:mid] + (extra,) + case.jobs[mid:],
        )
        aug, _ = run_case(augmented, audit=False)
        aug_decisions, aug_util = aug
        if aug_decisions[mid][0]:
            failures.append("metamorphic/inadmissible: impossible job admitted")
        stripped = aug_decisions[:mid] + aug_decisions[mid + 1 :]
        if stripped != base_decisions or aug_util != base_util:
            failures.append(
                "metamorphic/inadmissible: rejected job perturbed other decisions"
            )

    # 2. Scaling all times by k scales the schedule by k (k=2 is exact in
    #    binary floating point for the generator's nice times).
    k = 2.0
    scaled_case = replace(
        case, jobs=tuple(_scaled_job(j, k) for j in case.jobs)
    )
    scaled, _ = run_case(scaled_case, audit=False)
    scaled_decisions, scaled_util = scaled
    expected = tuple(
        (
            admitted,
            chain_index,
            tuple((s * k, p, d * k) for s, p, d in placements),
        )
        for admitted, chain_index, placements in base_decisions
    )
    if scaled_decisions != expected:
        failures.append("metamorphic/scale: decisions do not scale with time")
    if not math.isclose(scaled_util, base_util, rel_tol=1e-9, abs_tol=1e-12):
        failures.append(
            f"metamorphic/scale: utilization changed {base_util!r} -> "
            f"{scaled_util!r}"
        )

    # 3. Swapping two identical same-instant jobs is invisible (beyond job
    #    identity, which the digest excludes).
    for i in range(len(case.jobs) - 1):
        a, b = case.jobs[i], case.jobs[i + 1]
        if a.release == b.release and a.chains == b.chains:
            swapped = replace(
                case,
                jobs=case.jobs[:i] + (b, a) + case.jobs[i + 2 :],
            )
            got, _ = run_case(swapped, audit=False)
            if got != base:
                failures.append(
                    f"metamorphic/swap: swapping identical jobs at index {i} "
                    "changed decisions"
                )
            break
    return failures


def oracle_failures(case: FuzzCase) -> list[str]:
    """Greedy must never beat the exhaustive optimum (rigid, small cases)."""
    if case.malleable or len(case.jobs) > _ORACLE_MAX_JOBS:
        return []
    try:
        solution = exhaustive_best(
            list(case.jobs), case.capacity, OracleLimits(max_nodes=400_000)
        )
    except OracleLimitError:
        return []  # out of oracle scope; other checks still ran
    (decisions, _), _failures = run_case(case, audit=False)
    greedy_admitted = sum(1 for d in decisions if d[0])
    if greedy_admitted > solution.admitted_count:
        return [
            f"oracle: greedy admitted {greedy_admitted} > exhaustive optimum "
            f"{solution.admitted_count}"
        ]
    return []


def batch_failures(case: FuzzCase) -> list[str]:
    """``admit_batch`` replays bit-identical to the serial submit loop.

    Checked per tie-break policy against the serial digest of the same
    configuration; the batched run is also audited.  Which batched
    machinery runs (one-call compiled loop vs pre-screened Python loop)
    depends on the kernel layer and the policy — both must be invisible
    in the decisions.
    """
    failures: list[str] = []
    policies = _POLICIES if not case.malleable else (TieBreakPolicy.PAPER,)
    for policy in policies:
        serial, _ = run_case(case, policy=policy, audit=False)
        batched, audit_fails = run_case(case, policy=policy, batch=True)
        failures.extend(audit_fails)
        if batched != serial:
            failures.append(
                f"batch divergence under {policy.value}: admit_batch != "
                "serial submit loop"
            )
    return failures


def check_case(case: FuzzCase) -> list[str]:
    """All checks for one case; empty list means the case is clean."""
    failures = differential_failures(case)
    failures += metamorphic_failures(case)
    failures += oracle_failures(case)
    failures += batch_failures(case)
    return failures


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _drop_job(case: FuzzCase, i: int) -> FuzzCase:
    return replace(case, jobs=case.jobs[:i] + case.jobs[i + 1 :])


def _drop_chain(case: FuzzCase, i: int, c: int) -> FuzzCase:
    job = case.jobs[i]
    chains = job.chains[:c] + job.chains[c + 1 :]
    slimmed = Job(
        chains=chains, release=job.release, job_id=job.job_id, name=job.name
    )
    return replace(case, jobs=case.jobs[:i] + (slimmed,) + case.jobs[i + 1 :])


def _truncate_chain(case: FuzzCase, i: int, c: int) -> FuzzCase:
    job = case.jobs[i]
    chain = job.chains[c]
    shorter = TaskChain(chain.tasks[:-1], label=chain.label, params=chain.params)
    chains = job.chains[:c] + (shorter,) + job.chains[c + 1 :]
    slimmed = Job(
        chains=chains, release=job.release, job_id=job.job_id, name=job.name
    )
    return replace(case, jobs=case.jobs[:i] + (slimmed,) + case.jobs[i + 1 :])


def shrink(
    case: FuzzCase,
    failing: Callable[[FuzzCase], bool],
    max_rounds: int = 50,
) -> FuzzCase:
    """Greedy delta-debugging to a locally minimal still-failing case.

    Tries, in order of aggressiveness: removing whole jobs, dropping
    alternative chains, truncating chain tails.  Each accepted reduction
    restarts the scan; terminates at a fixpoint (or ``max_rounds``).
    """
    for _ in range(max_rounds):
        reduced = None
        for i in range(len(case.jobs)):
            candidate = _drop_job(case, i)
            if candidate.jobs and failing(candidate):
                reduced = candidate
                break
        if reduced is None:
            for i, job in enumerate(case.jobs):
                if len(job.chains) <= 1:
                    continue
                for c in range(len(job.chains)):
                    candidate = _drop_chain(case, i, c)
                    if failing(candidate):
                        reduced = candidate
                        break
                if reduced is not None:
                    break
        if reduced is None:
            for i, job in enumerate(case.jobs):
                for c, chain in enumerate(job.chains):
                    if len(chain.tasks) <= 1:
                        continue
                    candidate = _truncate_chain(case, i, c)
                    if failing(candidate):
                        reduced = candidate
                        break
                if reduced is not None:
                    break
        if reduced is None:
            return case
        case = reduced
    return case


# ---------------------------------------------------------------------------
# Corpus persistence
# ---------------------------------------------------------------------------


def persist_failure(
    case: FuzzCase, failures: Sequence[str], corpus_dir: str | Path
) -> Path:
    """Write a failing (ideally shrunk) case into the corpus; return its path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    payload = case.to_dict()
    payload["failure"] = list(failures)
    path = corpus_dir / f"fuzz-{case.case_id}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: str | Path) -> FuzzCase:
    """Load a corpus ``workload`` entry back into a :class:`FuzzCase`."""
    data = json.loads(Path(path).read_text())
    if data.get("version") != CORPUS_VERSION:
        raise ValueError(
            f"unsupported corpus version {data.get('version')!r} in {path}"
        )
    if data.get("kind") != "workload":
        raise ValueError(f"{path} is not a workload corpus entry")
    return FuzzCase.from_dict(data)


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FuzzReport:
    """Outcome of one fuzz campaign."""

    cases: int
    seed: int
    failures: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (case_id, whys)
    corpus_written: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every case passed every check."""
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"fuzz clean: {self.cases} cases (seed {self.seed})"
        lines = [
            f"fuzz: {len(self.failures)} failing case(s) out of "
            f"{self.cases} (seed {self.seed})"
        ]
        for case_id, whys in self.failures:
            lines.append(f"  case {case_id}:")
            lines += [f"    {w}" for w in whys]
        for path in self.corpus_written:
            lines.append(f"  reproducer: {path}")
        return "\n".join(lines)


def fuzz(
    n: int,
    seed: int,
    *,
    malleable_share: float = 0.25,
    max_jobs: int = 6,
    corpus_dir: str | Path | None = None,
    shrink_failures: bool = True,
) -> FuzzReport:
    """Run ``n`` random cases; shrink and persist any failure.

    One case in :data:`_FLOOD_EVERY` is a :func:`random_flood` checked by
    :func:`batch_failures` alone (the full battery on hundreds of jobs
    would be most of the campaign's time, and the oracle is out of scope
    above :data:`_ORACLE_MAX_JOBS` anyway).  Fully deterministic in
    ``(n, seed)``.  ``corpus_dir=None`` skips persistence (the report
    still carries the failures).
    """
    rng = random.Random(seed)
    failures: list[tuple[str, tuple[str, ...]]] = []
    written: list[str] = []
    for k in range(n):
        if k % _FLOOD_EVERY == _FLOOD_EVERY - 1:
            case, check = random_flood(rng), batch_failures
        else:
            malleable = rng.random() < malleable_share
            case = random_case(rng, max_jobs=max_jobs, malleable=malleable)
            check = check_case
        whys = check(case)
        if not whys:
            continue
        if shrink_failures:
            case = shrink(case, lambda c: bool(check(c)))
            whys = check(case) or whys
        case = dataclasses.replace(
            case, note=f"fuzz seed={seed} shrunk reproducer"
        )
        failures.append((case.case_id, tuple(whys)))
        if corpus_dir is not None:
            written.append(str(persist_failure(case, whys, corpus_dir)))
    return FuzzReport(
        cases=n,
        seed=seed,
        failures=tuple(failures),
        corpus_written=tuple(written),
    )
