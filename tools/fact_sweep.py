#!/usr/bin/env python
"""Sweep the compiled kernel's no-fit fact table: which facts to keep.

``_kernels.c`` keeps at most ``NFACTS`` no-fit facts per profile.  Once
the table is full a new fact goes in if it makes a stored one redundant
(it takes that one's slot) or if its walk was long, across at least
``n >> LONG_WALK_SHIFT`` of the ``n`` live segments (it takes the slot
after the last one so taken).  This script measures that rule against
the alternatives it was picked from.  Each variant is a scratch copy of
``src/`` with a few exact text edits (each must match exactly once, so a
changed source fails loud instead of measuring something else), built
with the same flags as the shipped kernel.  One child process per
(variant, workload) then replays the end-to-end benchmark's stream for
that workload (``benchmarks/e2e``, same seed and size arithmetic),
backlog admitted first, or (``pressure``) admits four fuzz pressure
cases (``repro.verify.fuzz.random_pressure``, seeds 0-3) in one
``admit_batch`` call each, and reports:

* ``c_s`` -- seconds inside ``repro_admit_batch`` during the timed part;
* ``seg/dec`` -- ``profile.probe_segments`` per timed decision;
* ``digest`` -- a hash of every decision and the final profile, which
  must be the same for every variant: the table only shortens walks.

    python tools/fact_sweep.py                      # every variant
    python tools/fact_sweep.py --variants shipped parent --rounds 3

A round of one variant takes about 20 s at the default ``--seconds 10``
(266,667 ``batch_backlog`` decisions) on 2 cores.  Scratch copies go
under ``--work`` (a temporary directory by default) and are removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = Path("repro/core/kernels")
WORKLOADS = ("batch_backlog", "serial_commit", "serial_probe", "pressure")

_C = KERNELS / "_kernels.c"
_PY = KERNELS / "compiled.py"


def _set(name: str, value: int) -> list[tuple[Path, str, str]]:
    """Edits that set the ``#define`` ``name`` to ``value``."""
    line = _define(name)
    shipped = line.split()[2]
    edits = [(_C, line, line.replace(f" {shipped}", f" {value}", 1))]
    if name == "NFACTS":
        edits.append((_PY, f"_Fact * {shipped}", f"_Fact * {value}"))
    return edits


def _define(name: str) -> str:
    for line in (ROOT / "src" / _C).read_text().splitlines():
        if line.startswith(f"#define {name} "):
            return line
    raise SystemExit(f"no #define {name} in {_C}")


def _long_walk(value: str) -> list[tuple[Path, str, str]]:
    """Edits that make a walk long when ``scanned >= value``."""
    return [(_C, "scanned >= n >> LONG_WALK_SHIFT", f"scanned >= {value}")]


#: Evict the fact recorded longest ago instead of the next slot.
_OLDEST = [
    (_C, "    double s;\n} Fact;", "    double s;\n    int64_t born;\n} Fact;"),
    (_PY, '("s", ctypes.c_double)]', '("s", ctypes.c_double), ("born", _i64)]'),
    (_C,
     "        int64_t v = p->fact_evict;\n"
     "        p->fact_evict = (v + 1) % NFACTS;\n",
     "        int64_t v = 0;\n"
     "        for (int64_t k = 1; k < n; k++)\n"
     "            if (facts[k].born < facts[v].born)\n"
     "                v = k;\n"),
    (_C, "facts[k] = (Fact){w, d, r, s};",
     "facts[k] = (Fact){w, d, r, s, p->fact_evict++};"),
]

#: Compaction also drops the facts that end at or before the new origin.
_PURGE = [
    (_C,
     "    p->prefix_from = 0; /* the origin moved: every entry changes */\n",
     "    p->prefix_from = 0; /* the origin moved: every entry changes */\n"
     "    int64_t kept = 0;\n"
     "    for (int64_t k = 0; k < p->nfacts; k++)\n"
     "        if (p->facts[k].s > times[0])\n"
     "            p->facts[kept++] = p->facts[k];\n"
     "    p->nfacts = kept;\n"),
]

#: A full table takes nothing from a short walk, not even a fact that
#: makes a stored one redundant.
_NO_MERGE = [
    (_C, "    if (run_start > from) /*",
     "    if (run_start > from &&\n"
     "        (p->nfacts < NFACTS || scanned >= n >> LONG_WALK_SHIFT)) /*"),
]


def variants() -> dict[str, list[tuple[Path, str, str]]]:
    """Every variant by name: its edits to the shipped source.  ``parent``
    is the rule before the long-walk test: every fact goes in, a full
    table evicting."""
    every = _long_walk("0")
    out: dict[str, list[tuple[Path, str, str]]] = {
        "shipped": [],
        "parent": every,
        "parent-oldest": every + _OLDEST,
        "oldest": _OLDEST,
        "purge": _PURGE,
        "no-merge": _NO_MERGE,
    }
    for shift in (2, 3, 5, 6):
        out[f"shift{shift}"] = _set("LONG_WALK_SHIFT", shift)
    for f in (64, 256, 1024):
        out[f"F{f}"] = _long_walk(str(f))
    for nf in (32, 128):
        out[f"N{nf}"] = _set("NFACTS", nf)
    return out


def _copy(name: str, edits, work: Path) -> Path:
    """A scratch ``src/`` with ``edits`` applied and its kernel built."""
    src = work / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
        "__pycache__", "*.so", "*.so.tmp"))
    for rel, old, new in edits:
        path = src / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: edit does not match {rel} once: {old!r}")
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("REPRO_KERNEL_LIB", None)
    subprocess.run(
        [sys.executable, "-m", "repro.core.kernels", "--build", "--force"],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return src


def _measure(src: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "REPRO_KERNEL": "compiled"}
    env.pop("REPRO_KERNEL_LIB", None)
    out = subprocess.run(
        [sys.executable, __file__, "--child", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _timer() -> list[float]:
    """Time every ``repro_admit_batch`` call from now on; the one cell of
    the returned list accumulates the seconds."""
    from repro.core import kernels

    impl = kernels.active()
    inner, spent = impl.admit_batch, [0.0]

    def timed(ctx, n_jobs):
        t0 = time.perf_counter()
        status = inner(ctx, n_jobs)
        spent[0] += time.perf_counter() - t0
        return status

    impl.admit_batch = timed
    return spent


def child(workload: str, seed: int, seconds: float) -> None:
    """Decide one workload on the kernel of ``$PYTHONPATH``; print its
    C seconds, segments per decision and digest as one JSON line."""
    import random

    from repro.core.arbitrator import QoSArbitrator
    from repro.service.wal import decision_to_tuple
    from repro.verify.fuzz import random_pressure

    sys.path.append(str(ROOT / "benchmarks"))
    from e2e import workloads as wl

    decisions, segments, profiles = [], 0, []
    if workload == "pressure":
        spent = _timer()
        for case_seed in range(4):
            case = random_pressure(random.Random(case_seed))
            arbitrator = QoSArbitrator(case.capacity)
            decisions += arbitrator.admit_batch(list(case.jobs))
            segments += arbitrator.schedule.profile.stats.probe_segments
            profiles.append(arbitrator.schedule.profile)
    else:
        spec = wl.WORKLOADS[workload]
        scale = seconds / wl.FULL_SECONDS
        prefix = round(spec.full_prefix * scale)
        jobs = wl.generate(spec, seed, max(64, round(spec.full * scale)), prefix, 0)
        arbitrator = QoSArbitrator(wl.CAPACITY)
        for lo in range(0, prefix, wl.CHUNK):
            arbitrator.admit_batch(jobs[lo : min(prefix, lo + wl.CHUNK)])
        profile = arbitrator.schedule.profile
        profiles.append(profile)
        segments = -profile.stats.probe_segments
        spent = _timer()
        if spec.family == "batch":
            for lo in range(prefix, len(jobs), wl.CHUNK):
                decisions += arbitrator.admit_batch(jobs[lo : lo + wl.CHUNK])
        else:
            decisions = [arbitrator.submit(job) for job in jobs[prefix:]]
        segments += profile.stats.probe_segments
    state = (
        [decision_to_tuple(d) for d in decisions],
        [(list(p._times), list(p._avail)) for p in profiles],  # noqa: SLF001
    )
    print(json.dumps({
        "c_s": spent[0],
        "seg_per_dec": segments / len(decisions),
        "digest": hashlib.sha256(repr(state).encode()).hexdigest()[:16],
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variants", nargs="*", help="default: all")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="measure every variant this many times, in turn")
    parser.add_argument("--work", type=Path, help="scratch directory")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.seed, args.seconds)
        return 0
    table = variants()
    names = args.variants or list(table)
    unknown = sorted(set(names) - set(table))
    if unknown:
        parser.error(f"unknown variants {unknown}; known: {sorted(table)}")
    work = Path(tempfile.mkdtemp(prefix="fact-sweep-", dir=args.work))
    try:
        built = {name: _copy(name, table[name], work) for name in names}
        results: dict[tuple[str, str], list[dict]] = {}
        for _ in range(args.rounds):
            for workload in args.workloads:
                for name in names:
                    results.setdefault((name, workload), []).append(
                        _measure(built[name], workload, args.seed, args.seconds))
    finally:
        shutil.rmtree(work)
    digests: dict[str, set[str]] = {}
    print(f"seed {args.seed}, --seconds {args.seconds}, {args.rounds} round(s); "
          "C s: median (min-max) over rounds")
    for workload in args.workloads:
        print(f"\n{workload}\n{'variant':<14} {'C s':>22} {'seg/dec':>10}")
        for name in names:
            runs = results[name, workload]
            c_s = sorted(r["c_s"] for r in runs)
            digests.setdefault(workload, set()).update(r["digest"] for r in runs)
            print(f"{name:<14} {c_s[len(c_s) // 2]:>8.3f} "
                  f"({c_s[0]:.3f}-{c_s[-1]:.3f}) {runs[0]['seg_per_dec']:>10.1f}")
    split = {w: sorted(d) for w, d in digests.items() if len(d) > 1}
    if split:
        print(f"\nDECISIONS DIFFER between variants: {split}")
        return 1
    print("\ndecisions and profiles identical across variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
