"""Mid-execution malleability: grow/shrink *running* jobs (ROADMAP item).

The paper renegotiates only at admission (and, via :mod:`repro.resilience`,
at fault events); a running malleable job never reclaims capacity freed by
a completion or a repair, and the system never narrows a running job to
admit a pressed arrival.  DMR and ReSHAPE both show that dynamic resizing
of running jobs — with an *honest* reconfiguration-cost charge — is where
malleability pays off.  This module supplies that policy layer:

* **grow** — fired on capacity-freeing events (job completions, capacity
  repairs): a running malleable job's in-flight task is restarted wider on
  idle processors, accepted only when the job's reserved finish strictly
  improves despite the cost charge;
* **shrink-to-admit** — fired on capacity-pressure events (an arrival the
  arbitrator just rejected): a running job's in-flight task is restarted
  narrower, and the arrival re-offered against the freed capacity; the
  shrink is kept only when the arrival is then admitted;
* **shrink-to-rescue** — fired inside the capacity-change re-plan loop
  when a displaced job fits on no path of the shrunken machine: a donor
  job already re-established on the new schedule is narrowed and the
  victim re-planned once more before it is honestly dropped.

Every resize charges the :class:`ReconfigCostModel` — a fixed checkpoint
term, the first-order term of the DMR/ReSHAPE measurements — as *dead time* before the restarted task may begin, and restarts the
interrupted task from scratch with its full declared work, justified by
the Calypso-style idempotent two-phase execution model (:mod:`repro.calypso`)
already used for fault restarts.  The consumed partial run is charged to
the driver's ``spent`` *and* ``wasted`` ledgers.  The mechanics (tail
rollback, width-bounded re-placement, bit-exact undo) live in
:meth:`repro.resilience.driver.RenegotiationDriver.resize_remainder`; this
module owns the policy, the cost model, the grow/shrink ledger, and the
:class:`ResizeRecord` stream the independent auditor re-validates
(:meth:`repro.verify.auditor.ScheduleAuditor.audit_resizes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.admission import AdmissionDecision
    from repro.core.arbitrator import QoSArbitrator
    from repro.model.job import Job
    from repro.resilience.driver import RenegotiationDriver, ResizeTxn, _LiveJob

__all__ = [
    "ResizePolicy",
    "ReconfigCostModel",
    "ResizeRecord",
    "ReconfigEngine",
]

#: How many running jobs a shrink pass may probe per pressed arrival;
#: bounds the per-event work without sacrificing determinism (candidates
#: are ranked widest-in-flight first, so the most capacity-rich donors are
#: always tried).
MAX_SHRINK_CANDIDATES = 4


class ResizePolicy(Enum):
    """Which mid-execution resize directions are enabled."""

    OFF = "off"
    GROW = "grow"
    SHRINK = "shrink"
    GROW_SHRINK = "grow-shrink"

    @property
    def grows(self) -> bool:
        """Whether capacity-freeing events may widen running jobs."""
        return self in (ResizePolicy.GROW, ResizePolicy.GROW_SHRINK)

    @property
    def shrinks(self) -> bool:
        """Whether capacity pressure may narrow running jobs."""
        return self in (ResizePolicy.SHRINK, ResizePolicy.GROW_SHRINK)


@dataclass(frozen=True, slots=True)
class ReconfigCostModel:
    """Reconfiguration delay charged before a resized task restarts.

    ``checkpoint`` is a fixed checkpoint/drain term in virtual time, the
    same for every width change; zero is free resizing.
    (``SweepConfig.reconfig_cost`` sets it.)
    """

    checkpoint: float = 0.0

    def __post_init__(self) -> None:
        if not self.checkpoint >= 0:
            raise ConfigurationError(
                f"reconfiguration costs must be >= 0, got "
                f"checkpoint={self.checkpoint}"
            )


@dataclass(frozen=True, slots=True)
class ResizeRecord:
    """One accepted resize, as data — the auditor's input.

    Everything the independent resize invariants need is captured at the
    moment the resize is finalized: the cut instant and charged delay, the
    width transition and its upper bound (the lower one is always one
    processor), the restarted task's full work area, and the extent of the
    new leading placement.
    """

    kind: str  # "grow" | "shrink"
    job_id: int
    task: str
    time: float  # resize instant (the tail-rollback cut)
    delay: float  # charged reconfiguration dead time
    old_width: int
    new_width: int
    max_width: int  # upper width bound in force (concurrency/capacity cap)
    task_area: float  # full declared work of the restarted task
    new_start: float
    new_duration: float


class ReconfigEngine:
    """Policy layer for mid-execution grow/shrink of running malleable jobs.

    One engine instance serves one simulated run: it binds to the run's
    :class:`~repro.resilience.driver.RenegotiationDriver`, decides when the
    driver's resize mechanics fire and whether their outcome is kept, and
    accumulates the grow/shrink ledger plus the audited
    :class:`ResizeRecord` stream.

    Parameters
    ----------
    policy:
        Enabled directions; :attr:`ResizePolicy.OFF` makes every hook a
        no-op (the simulator then never even enqueues resize events).
    cost:
        The reconfiguration-cost model charged on every resize.
    """

    def __init__(
        self,
        policy: ResizePolicy = ResizePolicy.GROW_SHRINK,
        cost: ReconfigCostModel | None = None,
    ) -> None:
        self.policy = policy
        self.cost = cost if cost is not None else ReconfigCostModel()
        self.driver: "RenegotiationDriver | None" = None
        self.records: list[ResizeRecord] = []
        # Ledger.
        self._grow_attempts = 0
        self._grows = 0
        self._shrink_attempts = 0
        self._shrinks = 0
        self._shrink_admits = 0
        self._shrink_rescues = 0

    def bind(self, driver: "RenegotiationDriver") -> None:
        """Attach to one run's driver (and register the rescue hook)."""
        self.driver = driver
        driver.reconfig = self

    @property
    def active(self) -> bool:
        """Whether any resize direction is enabled."""
        return self.policy is not ResizePolicy.OFF

    def ledger(self) -> dict[str, float | int]:
        """Grow/shrink detail merged into the run's resilience block."""
        return {
            "grow_attempts": self._grow_attempts,
            "grows": self._grows,
            "shrink_attempts": self._shrink_attempts,
            "shrinks": self._shrinks,
            "shrink_admits": self._shrink_admits,
            "shrink_rescues": self._shrink_rescues,
        }

    # ------------------------------------------------------------------
    # Grow: capacity-freeing events
    # ------------------------------------------------------------------

    def grow_all(self, now: float) -> list[int]:
        """Widen every running job that profits at ``now``; returns job ids.

        Fired after a completion sweep or a capacity repair.  Jobs are
        probed in ascending ``job_id`` order (deterministic); each grow is
        kept only when the job's reserved finish strictly improves despite
        the cost charge, so a grow can never hurt the job it touches.
        """
        driver = self.driver
        if driver is None or not self.policy.grows:
            return []
        capacity = driver.arbitrator.capacity
        grown: list[int] = []
        for job_id in sorted(driver._live):
            state = driver.inflight(job_id, now)
            if state is None:
                continue
            width, task = state
            cap = min(task.max_concurrency, capacity)
            if width >= cap:
                continue
            self._grow_attempts += 1
            txn = self._probe_grow(job_id, now, width, cap)
            if txn is None:
                continue
            self._grows += 1
            self._record("grow", txn, task)
            txn.finalize()
            grown.append(job_id)
        return grown

    def _probe_grow(
        self, job_id: int, now: float, width: int, cap: int
    ) -> "ResizeTxn | None":
        """Widest profitable restart of ``job_id``'s in-flight task: one
        width-banded probe (the delay is the same for every target, and
        the scheduler's widest-first scan picks inside the band)."""
        driver = self.driver
        assert driver is not None
        txn = driver.resize_remainder(
            job_id,
            now,
            delay=self.cost.checkpoint,
            first_min_width=width + 1,
            first_max_width=cap,
        )
        if txn is None:
            return None
        if txn.new_finish < txn.old_finish:
            return txn
        txn.undo()
        return None

    # ------------------------------------------------------------------
    # Shrink: capacity-pressure events
    # ------------------------------------------------------------------

    def shrink_to_admit(
        self, job: "Job", now: float, arbitrator: "QoSArbitrator"
    ) -> "tuple[AdmissionDecision, int] | None":
        """Narrow one running job so a just-rejected arrival fits.

        Donors are ranked widest-in-flight first (they free the most
        capacity), ties by ``job_id``; at most
        :data:`MAX_SHRINK_CANDIDATES` are probed.  For each donor the
        narrowest feasible restart is committed tentatively and the
        arrival re-offered (:meth:`QoSArbitrator.resubmit
        <repro.core.arbitrator.QoSArbitrator.resubmit>`); the shrink is
        undone bit for bit unless the arrival is admitted.  Returns the
        admitting decision and the donor's ``job_id``, or ``None``.
        """
        if not self.policy.shrinks:
            return None
        for job_id, txn, task in self._shrink_donors(now, exclude=job.job_id):
            decision = arbitrator.resubmit(job)
            if decision.admitted and decision.placement is not None:
                self._shrinks += 1
                self._shrink_admits += 1
                self._record("shrink", txn, task)
                txn.finalize()
                return decision, job_id
            txn.undo()
        return None

    def rescue_replan(
        self, rec: "_LiveJob", now: float, donors: list[int]
    ) -> bool:
        """Shrink a donor so a displaced job survives a capacity drop.

        Called by the driver's capacity-change loop after a straight
        re-plan failed, just before the job would be lost.  Only jobs
        already re-established on the post-change schedule (``donors``)
        may be narrowed — anything later in the loop still holds its
        reservation on the *old* schedule.
        """
        driver = self.driver
        if driver is None or not self.policy.shrinks:
            return False
        for _job_id, txn, task in self._shrink_donors(
            now, exclude=rec.job_id, among=donors
        ):
            # The capacity-change loop's failed re-plan already charged the
            # victim's interrupted portion to ``spent``; each retry would
            # recompute and re-add the same charge, so net it back out.
            spent_before = rec.spent
            ok = driver._replan(rec, now) is not None
            rec.spent = spent_before
            if ok:
                self._shrinks += 1
                self._shrink_rescues += 1
                self._record("shrink", txn, task)
                txn.finalize()
                return True
            txn.undo()
        return False

    def _shrink_donors(
        self,
        now: float,
        exclude: int,
        among: "list[int] | None" = None,
    ):
        """Yield tentative shrink transactions, best donor first.

        Each yielded transaction is already committed to the schedule; the
        consumer must ``finalize()`` or ``undo()`` it before the next
        iteration (the generator never leaves one open).
        """
        driver = self.driver
        assert driver is not None
        pool = sorted(driver._live) if among is None else sorted(set(among))
        candidates: list[tuple[int, int, object]] = []
        for job_id in pool:
            if job_id == exclude:
                continue
            state = driver.inflight(job_id, now)
            if state is None:
                continue
            width, task = state
            if width <= 1:
                continue
            candidates.append((width, job_id, task))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        for width, job_id, task in candidates[:MAX_SHRINK_CANDIDATES]:
            self._shrink_attempts += 1
            txn = self._probe_shrink(job_id, now, width)
            if txn is not None:
                yield job_id, txn, task

    def _probe_shrink(
        self, job_id: int, now: float, width: int
    ) -> "ResizeTxn | None":
        """Narrowest feasible restart (frees the most capacity)."""
        driver = self.driver
        assert driver is not None
        for target in range(1, width):
            txn = driver.resize_remainder(
                job_id,
                now,
                delay=self.cost.checkpoint,
                first_min_width=target,
                first_max_width=target,
            )
            if txn is not None:
                return txn
        return None

    # ------------------------------------------------------------------

    def _record(self, kind: str, txn: "ResizeTxn", task) -> None:
        driver = self.driver
        assert driver is not None
        capacity = driver.arbitrator.capacity
        lead = txn.new_cp.placements[0]
        self.records.append(
            ResizeRecord(
                kind=kind,
                job_id=txn.rec.job_id,
                task=task.name,
                time=txn.cut,
                delay=txn.delay,
                old_width=txn.old_width,
                new_width=lead.processors,
                max_width=min(task.max_concurrency, capacity),
                task_area=task.area,
                new_start=lead.start,
                new_duration=lead.duration,
            )
        )
