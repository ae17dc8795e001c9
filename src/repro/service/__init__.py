"""Fault-tolerant arbitrator-as-a-service (ROADMAP: "long-running service").

The package turns the library :class:`~repro.core.arbitrator.QoSArbitrator`
into a durable admission pipeline:

* :mod:`repro.service.service` — the asyncio front-end: bounded ingress
  with backpressure, decision batching over ``admit_batch``, per-request
  deadlines, fail-stop on a decision-path error, QoS-class shedding and
  degraded-quality admission, append-before-ack durability;
* :mod:`repro.service.wal` — the CRC-framed, fsync'd write-ahead
  decision log with append-only delta checkpoints and torn-tail repair;
* :mod:`repro.service.recovery` — crash recovery that replays the log
  into a fresh arbitrator and *proves* (bit-identical replay + an
  independent audit) the result is the pre-crash schedule;
* :mod:`repro.service.chaos` — the seeded fault-injection harness that
  keeps all of the above honest.

The package re-exports nothing: import the submodule you use
(``from repro.service import service``), so ``python -m
repro.service.chaos`` does not double-import the module it is executing.
"""
