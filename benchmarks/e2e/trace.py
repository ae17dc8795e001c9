"""Outside-in tracing: spans recorded from the benchmark's own files.

Nothing under ``src/`` is edited.  A traced run wraps the *public*
function at each layer boundary — by injection where the program offers
a seam (``decide=``, ``clock=``, the event loop's selector), by instance
attribute for one service's WAL, by module or class attribute for
functions every arbitrator shares — and times the call from outside.

A span is ``(name, start, end, parent)``; the span's id is its position
in entry order and ``parent`` is the id of the span that was running when
it started.  Spans live in flat ``array`` columns (no per-span object, so
a million spans do not disturb the collector) and are written out by
:func:`write_spans` only after timing has stopped.  The span name's
prefix is its layer: ``service.``, ``wal.``, ``recovery.``,
``arbitrator.``, ``kernels.``, ``greedy.``, ``profile.``, ``loadgen.``,
``runtime.``.

A layer's *self* time is its spans' duration minus the part their child
spans cover, so self times of different layers never overlap and their
sum can be compared with the wall clock (``trace.coverage``).
"""

from __future__ import annotations

import gc
import json
import selectors
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "Tracer",
    "GcWatch",
    "TimedSelector",
    "install",
    "instrument_service",
    "write_spans",
]

_pc = time.perf_counter

#: Spans written per trace file; a serial workload records about a
#: million, and the first requests show the same structure as the rest.
SPAN_FILE_LIMIT = 20_000


class Tracer:
    """Flat-array span store with a one-slot "currently running" cursor."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.sid = array("q")
        self.current = -1
        self.count = 0

    def code_of(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span per call, nested under the running span."""
        code = self.code_of(name)
        tracer = self
        add_code, add_t0, add_t1 = self.code.append, self.t0.append, self.t1.append
        add_parent, add_sid = self.parent.append, self.sid.append

        def traced(*args, **kwargs):
            parent = tracer.current
            sid = tracer.count
            tracer.count = sid + 1
            tracer.current = sid
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _pc()
                tracer.current = parent
                add_code(code)
                add_t0(t0)
                add_t1(t1)
                add_parent(parent)
                add_sid(sid)

        return traced

    def clear(self) -> None:
        """Forget every span (the wrappers keep appending to the same arrays)."""
        for column in (self.code, self.t0, self.t1, self.parent, self.sid):
            del column[:]
        self.current = -1
        self.count = 0

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a root span the harness timed itself (no wrapper)."""
        self.code.append(self.code_of(name))
        self.t0.append(t0)
        self.t1.append(t1)
        self.parent.append(-1)
        self.sid.append(self.count)
        self.count += 1

    # -- analysis (after timing) ----------------------------------------

    def frame(self) -> dict[str, np.ndarray]:
        """Columns as NumPy arrays in span-id (entry) order."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        return {
            "code": np.frombuffer(self.code, dtype=np.int16)[order],
            "t0": np.frombuffer(self.t0, dtype=np.float64)[order],
            "t1": np.frombuffer(self.t1, dtype=np.float64)[order],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[order],
        }

    def adopt(self, frame: dict[str, np.ndarray], parent_name: str) -> None:
        """Make every root span that lies inside a ``parent_name`` span its child.

        Used for spans whose enclosing interval the harness only learns
        afterwards (a service batch is delimited by clock stamps, not by
        a wrapper that was running while its WAL calls were made).
        """
        if parent_name not in self._codes:
            return
        is_parent = frame["code"] == self._codes[parent_name]
        ids = np.flatnonzero(is_parent)
        starts, ends = frame["t0"][ids], frame["t1"][ids]
        order = np.argsort(starts)
        ids, starts, ends = ids[order], starts[order], ends[order]
        roots = np.flatnonzero((frame["parent"] < 0) & ~is_parent)
        slot = np.searchsorted(starts, frame["t0"][roots], side="right") - 1
        inside = (slot >= 0) & (frame["t1"][roots] <= ends[np.maximum(slot, 0)])
        frame["parent"][roots[inside]] = ids[slot[inside]]

    def totals(self, frame: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        dur = frame["t1"] - frame["t0"]
        own = dur.copy()
        child = frame["parent"] >= 0
        np.subtract.at(own, frame["parent"][child], dur[child])
        out = {}
        for code, name in enumerate(self.names):
            mask = frame["code"] == code
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def durations(self, frame: dict[str, np.ndarray], name: str) -> np.ndarray:
        if name not in self._codes:
            return np.empty(0)
        mask = frame["code"] == self._codes[name]
        return (frame["t1"] - frame["t0"])[mask]


class GcWatch:
    """Collector pauses seen through ``gc.callbacks`` (harness ``runtime`` layer)."""

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = _pc()
        else:
            self.pauses.append(_pc() - self._t0)
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class TimedSelector(selectors.DefaultSelector):
    """The event loop's selector with each wait recorded as ``runtime.idle``.

    The loop blocks nowhere else, so these spans are exactly the time the
    service process had nothing to run.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._timed_select = tracer.wrap("runtime.idle", super().select)

    def select(self, timeout=None):
        return self._timed_select(timeout)


def install(tracer: Tracer) -> None:
    """Wrap the boundaries every arbitrator in this process shares.

    Module attributes where the caller looks the function up by global
    name, class attributes for methods, an instance attribute for the one
    loaded kernel object.  The process is a benchmark child that exits
    after one workload, so nothing is restored.
    """
    from repro.core import greedy, kernels
    from repro.core.greedy import GreedyScheduler
    from repro.core.kernels import batch
    from repro.core.profile import AvailabilityProfile
    from repro.service import recovery
    from repro.service import service as service_module

    batch.flatten_jobs = tracer.wrap("kernels.flatten", batch.flatten_jobs)
    compiled = kernels.active()
    compiled.admit_batch = tracer.wrap("kernels.c_call", compiled.admit_batch)
    GreedyScheduler.schedule_job = tracer.wrap(
        "greedy.schedule_job", GreedyScheduler.schedule_job
    )
    # ``earliest_fit`` is a function of ``core.first_fit`` that ``greedy``
    # imports by name, not a profile method; the profile layer owns it.
    greedy.earliest_fit = tracer.wrap("profile.earliest_fit", greedy.earliest_fit)
    for method in ("reserve", "release", "compact"):
        setattr(
            AvailabilityProfile,
            method,
            tracer.wrap(f"profile.{method}", getattr(AvailabilityProfile, method)),
        )
    service_module.write_checkpoint = tracer.wrap(
        "wal.write_checkpoint", service_module.write_checkpoint
    )
    for name in ("read_checkpoint", "read_wal"):
        setattr(recovery, name, tracer.wrap("recovery.read", getattr(recovery, name)))
    recovery.verify_replay = tracer.wrap("recovery.replay", recovery.verify_replay)


def instrument_service(tracer: Tracer, service, probes: dict[str, list]) -> None:
    """Instance-level wrappers on one service's WAL and checkpoint.

    Also notes the two sizes no span carries: the ledger length each
    checkpoint rewrites and the log bytes each truncation discards.
    """
    wal = service.wal
    for method in ("append_jobs", "append_decisions", "sync"):
        setattr(wal, method, tracer.wrap(f"wal.{method}", getattr(wal, method)))
    truncate = tracer.wrap("wal.truncate", wal.truncate)
    checkpoint = tracer.wrap("service.checkpoint", service.checkpoint)

    def sized_truncate():
        probes["wal_bytes"].append(wal.path.stat().st_size)
        return truncate()

    def sized_checkpoint():
        probes["ledger_sizes"].append(len(service.entries))
        return checkpoint()

    wal.truncate = sized_truncate
    service.checkpoint = sized_checkpoint


def write_spans(tracer: Tracer, frame: dict[str, np.ndarray], path: Path) -> int:
    """Write the first :data:`SPAN_FILE_LIMIT` spans as JSON lines.

    ``root`` is the ordinal of the span's outermost ancestor among root
    spans — the request index in a serial workload, the batch or phase
    index in a service one — so the spans of one request share an id.
    """
    n = min(len(frame["code"]), SPAN_FILE_LIMIT)
    parent = frame["parent"]
    root = np.arange(n)
    for i in range(n):
        r = i
        while parent[r] >= 0:
            r = parent[r]
        root[i] = r
    ordinal = {int(r): k for k, r in enumerate(np.flatnonzero(parent < 0))}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(
            json.dumps({"spans_recorded": len(parent), "spans_written": n}) + "\n"
        )
        for i in range(n):
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": tracer.names[frame["code"][i]],
                        "start": frame["t0"][i],
                        "end": frame["t1"][i],
                        "parent": int(parent[i]),
                        "root": ordinal[int(root[i])],
                    }
                )
                + "\n"
            )
    return n
