"""Task model: tasks, chains and tunable jobs.

Section 5.1 of the paper: a job is a *chain* of non-preemptible tasks, each
with a processor-time resource request and a deadline; a *tunable* job is an
OR task graph whose enumerated paths form multiple alternative chains, "each
with its own resource requirement and deadline profiles, representing
alternate ways in which the application can consume resources in order to
produce outputs with the desired quality".  A :class:`Job` holds those
chains; :func:`repro.lang.preprocess.enumerate_paths` enumerates them from
a tunable program's OR graph.
"""

from repro.model.task import TaskSpec
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import compose_product, chain_quality

__all__ = [
    "TaskSpec",
    "TaskChain",
    "Job",
    "compose_product",
    "chain_quality",
]
