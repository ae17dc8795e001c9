"""Jobs — possibly-tunable units of arrival, admission and scheduling.

A :class:`Job` carries one or more alternative :class:`~repro.model.chain.TaskChain`
configurations ("For uniformity, we assume that all paths through an OR
graph have been enumerated, so a tunable application is represented by
multiple task chains", Section 5.1) plus its release time.  A *non-tunable*
job is simply a job with a single chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

from repro.core.resources import TIME_LIMIT, checked_time, slot_setters
from repro.errors import InvalidJobError
from repro.model.chain import TaskChain
from repro.model.quality import chain_quality

__all__ = ["Job"]

_job_counter = itertools.count()
#: ``job_id`` not given: draw the next auto id (an explicit ``None`` stays).
_AUTO_ID: Any = object()


@dataclass(frozen=True, slots=True, init=False)
class Job:
    """A unit of work released into the system at :attr:`release`.

    Attributes
    ----------
    chains:
        The enumerated alternative execution paths.  One chain = rigid
        (non-tunable) job; several = tunable job.
    release:
        Absolute arrival time, inside the range of
        :func:`~repro.core.resources.checked_time`; tasks may not start
        before it and all (relative) task deadlines are measured from it.
    job_id:
        Unique integer identity, auto-assigned if not given.  The id is
        drawn before the arguments are checked, so a refused job still
        consumes one.
    name:
        Optional human-readable tag (e.g. ``"junction-detect"``).
    """

    chains: tuple[TaskChain, ...]
    release: float = 0.0
    job_id: int = _AUTO_ID
    name: str = ""

    def __init__(
        self, chains: Sequence[TaskChain], release: float = 0.0,
        job_id: int = _AUTO_ID, name: str = "",
    ) -> None:  # stores through the slots: see resources.slot_setters
        if job_id is _AUTO_ID:
            job_id = next(_job_counter)
        chains = tuple(chains)
        if not chains:
            raise InvalidJobError("a job must offer at least one chain")
        for c in chains:
            if not isinstance(c, TaskChain):
                raise InvalidJobError(f"job chain {c!r} is not a TaskChain")
        if not (type(release) is float and -TIME_LIMIT < release < TIME_LIMIT):
            release = checked_time(release, "release", InvalidJobError)
        _set_chains(self, chains)
        _set_release(self, release)
        _set_job_id(self, job_id)
        _set_name(self, name)

    # ------------------------------------------------------------------

    @property
    def tunable(self) -> bool:
        """True when the job offers more than one execution path."""
        return len(self.chains) > 1

    def __iter__(self) -> Iterator[TaskChain]:
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)

    def absolute_deadline(self, chain: TaskChain) -> float:
        """Absolute completion deadline of ``chain`` for this job."""
        return self.release + chain.final_deadline

    def best_quality(self) -> float:
        """Highest path quality offered by any chain."""
        return max(chain_quality(c) for c in self.chains)

    def released_at(self, release: float) -> "Job":
        """Copy of this job released at a different absolute time.

        Keeps the same ``job_id``; workload generators instead combine a
        template job with fresh ids via :meth:`instantiate`.
        """
        return replace(self, release=release)

    def instantiate(self, release: float, job_id: int | None = None) -> "Job":
        """Fresh arrival of this job template at ``release``.

        Returns a new job with a new identity (or the one provided), sharing
        the immutable chain structure.
        """
        return replace(
            self,
            release=release,
            job_id=next(_job_counter) if job_id is None else job_id,
        )

    @staticmethod
    def rigid(chain: TaskChain, release: float = 0.0, name: str = "") -> "Job":
        """Build a non-tunable (single-chain) job."""
        return Job(chains=(chain,), release=release, name=name)

    @staticmethod
    def tunable_of(
        chains: Sequence[TaskChain], release: float = 0.0, name: str = ""
    ) -> "Job":
        """Build a tunable job from several alternative chains."""
        return Job(chains=tuple(chains), release=release, name=name)

    def describe(self) -> str:
        """Multi-line rendering of the job and its alternatives."""
        head = f"job#{self.job_id} {self.name or ''} release={self.release:g}".rstrip()
        lines = [head] + ["  " + c.describe() for c in self.chains]
        return "\n".join(lines)


_set_chains, _set_release, _set_job_id, _set_name = slot_setters(Job)
