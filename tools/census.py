#!/usr/bin/env python
"""Function census: which functions under ``src/repro`` only tests reach.

A ``sys.setprofile`` hook records every Python function a process calls.
The census runs two sets of processes under it: tier-1 (pytest over
``tests/``), then the entry points a user runs (:data:`ENTRY_POINTS`).
Every ``def`` under ``src/repro`` is then one of

* reached by an entry point;
* *test-only*: called during tier-1 and by no entry point;
* *never called*: called by neither.

The last two are printed per module, with their line counts.  The hook
reaches every Python subprocess as well (the runner's spawned workers, the
e2e harness's children): it is installed by a generated ``sitecustomize``
module on ``PYTHONPATH``, and each process writes what it called at exit.
A process killed by a signal writes nothing.  Stdlib only.  Run from
anywhere::

    python tools/census.py

The hook slows Python several-fold: on a 2-core x86_64 host shared with
other jobs, tier-1 took about 5 min under it and the entry points about
10 min.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: tier-1, as the census runs it (no ``-x``: a test that fails under the
#: hook's slowdown still counts what it called).
TESTS = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "tests")

#: What a user runs, each one ``python <argv>`` from the repo root.
ENTRY_POINTS: tuple[tuple[str, ...], ...] = (
    ("-m", "repro.experiments", "--jobs", "1"),
    ("-m", "repro.experiments", "--jobs", "2"),  # the pool path
    *((f"examples/{path.name}",) for path in sorted((ROOT / "examples").glob("*.py"))),
    ("-m", "repro.service", "--kill-after", "10"),
    ("-m", "repro.verify", "--selftest"),
    ("-m", "repro.verify", "--replay-corpus", "tests/corpus"),
    ("-m", "repro.verify", "--fuzz", "200", "--seed", "7"),
    ("-m", "repro.verify", "--oracle", "30", "--seed", "11"),
    ("-m", "repro.service.chaos"),
    ("-m", "repro.core.kernels", "--check"),
    ("benchmarks/e2e/run.py", "--smoke"),
    ("tools/resize_campaign.py", "--seeds", "2"),
)

#: The generated ``sitecustomize``: record each called code object, and at
#: exit write the ``(file, first line)`` of those under a ``repro`` path.
_HOOK = """\
import atexit, json, os, sys, threading

_seen = set()


def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    called = sorted(
        {(c.co_filename, c.co_firstlineno) for c in _seen if "repro" in c.co_filename}
    )
    path = os.path.join(os.environ["REPRO_CENSUS_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(called, fh)


if os.environ.get("REPRO_CENSUS_OUT"):
    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
"""


@dataclass(frozen=True, slots=True)
class Function:
    """One ``def`` under ``src/repro``; ``first`` is its code's first line."""

    module: str
    name: str
    first: int
    lines: int

    @property
    def key(self) -> tuple[str, int]:
        return (str(SRC / self.module), self.first)


def functions() -> list[Function]:
    """Every function and method defined under ``src/repro``, nested too."""
    found: list[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    name = prefix + child.name
                    found.append(Function(module, name, first, child.end_lineno - first + 1))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def run_phase(label: str, commands: tuple[tuple[str, ...], ...]) -> set[tuple[str, int]]:
    """Run ``commands`` under the hook; the ``(file, first line)`` they called."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        hook_dir = Path(scratch, "hook")
        out_dir = Path(scratch, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join((str(hook_dir), str(SRC))),
            "REPRO_CENSUS_OUT": str(out_dir),
            "HYPOTHESIS_PROFILE": "ci",
        }
        for argv in commands:
            t0 = time.perf_counter()
            code = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL
            ).returncode
            status = "ok" if code == 0 else f"exit {code}"
            print(
                f"  {label}: {' '.join(argv)}: {status} in {time.perf_counter() - t0:.0f} s",
                file=sys.stderr,
            )
        called: set[tuple[str, int]] = set()
        for path in out_dir.glob("*.json"):
            for filename, line in json.loads(path.read_text()):
                called.add((os.path.realpath(filename), line))
    return called


def main() -> int:
    table = functions()
    in_tests = run_phase("tier-1", (TESTS,))
    in_entry = run_phase("entry", ENTRY_POINTS)
    test_only = [f for f in table if f.key in in_tests and f.key not in in_entry]
    never = [f for f in table if f.key not in in_tests and f.key not in in_entry]

    by_module: dict[str, list[tuple[str, Function]]] = defaultdict(list)
    for tag, group in (("test-only", test_only), ("never called", never)):
        for f in group:
            by_module[f.module].append((tag, f))
    for module in sorted(by_module):
        print(module)
        for tag, f in sorted(by_module[module], key=lambda item: item[1].first):
            print(f"  {tag:<12}  {f.name}:{f.first} ({f.lines} lines)")

    def lines(group: list[Function]) -> int:
        return sum(f.lines for f in group)

    print(
        f"census: {len(table)} functions under src/repro; "
        f"{len(test_only)} test-only ({lines(test_only)} lines), "
        f"{len(never)} never called ({lines(never)} lines)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
