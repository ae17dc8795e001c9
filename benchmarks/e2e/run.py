#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                     # all workloads, end to end
    python3 benchmarks/e2e/run.py --workload svc_paced --seed 7
    python3 benchmarks/e2e/run.py --trace             # per-layer numbers
    python3 benchmarks/e2e/run.py --agree 2           # noise floor / acceptance
    python3 benchmarks/e2e/run.py --smoke             # the harness's own test
    python3 benchmarks/e2e/run.py --mint              # (re)mint digests.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

Names, units, directions and bounds come from ``BENCHMARK.json`` at the
repository root; see ``README.md`` beside this file for what each one
means.  A *run* of a workload is a few fresh child processes that set up
(``setup_s`` is their median), one of which goes on to run one timed lap
of fixed size and to check its decisions.  ``--trace`` instead runs one
untraced and one traced child: end-to-end numbers always come from
untraced processes.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any decision stream fails its check, 2 when the benchmark cannot run
here (no ``src/``, no compiled kernel).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    print(f"e2e benchmark: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
          file=sys.stderr)
    sys.exit(2)
# Import the harness as the package ``e2e`` (its ``trace.py`` must not
# shadow the standard library's) and the program from the checkout.
sys.path[0] = str(HERE.parent)
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: ISSUE end-to-end values the driver's contract cannot carry as
#: ``end_to_end`` metrics (they exist on one workload, are 0 when all is
#: well, or spread by more than the largest bound allowed), and the host
#: factor; measured untraced, reported with the per-layer set.
UNTRACED_EXTRAS = {
    "recovery.recover_s": "recover_s",
    "loadgen.on_time_share": "on_time_share",
    "loadgen.failed_share": "failed_share",
    "loadgen.latency_p90_us": "latency_p90_us",
    "loadgen.latency_p99_us": "latency_p99_us",
    "loadgen.host_slowdown": "host_slowdown",
}

SMOKE_SCALE = 50

#: ``svc_paced``'s latency limit: a generator later than this measured itself.
LATE_FLAG_MS = 50.0


# ---------------------------------------------------------------------------
# Child: one workload, one fresh process, one timed lap
# ---------------------------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    from e2e import check, env, layers, trace, workloads

    env.require_compiled_kernel()
    # Set-up's own host-speed checks: after the imports, after stream
    # generation, after pre-admission (layers.py: reference-speed seconds).
    checks = [workloads.speed_check() for _ in range(9)]
    workload = workloads.WORKLOADS[args.child]
    inputs = workloads.prepare(workload, args.seed, args.seconds, OUT)
    checks += [workloads.speed_check() for _ in range(9)]
    tracer = None
    if args.trace:  # after generation, so that leaves no spans
        tracer = trace.Tracer()
        trace.install(tracer)
    state = workloads.fresh_state(inputs)
    checks += [workloads.speed_check() for _ in range(9)]
    setup_s = (time.time() - args.spawned) / layers.host_slowdown(checks)
    if args.setup_only:
        if state.wal_dir is not None:
            state.wal_dir.rmdir()  # made by set-up, never written to
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.clear()  # the backlog pre-admission of fresh_state
    gc_watch = trace.GcWatch()
    timed = workloads.run_lap(inputs, state, tracer, gc_watch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics, extra = layers.end_to_end(timed, setup_s, peak_rss_mb)
    result: dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "wall_s": timed.wall_s,
        # What tracing may lengthen: the lap without its speed checks, at
        # reference speed (an open loop's length is its schedule's).
        "lap_s": timed.wall_s if timed.sleeps else
        (timed.wall_s - float(timed.speed_s.sum())) / extra["host_slowdown"],
        "operations": len(timed.done),
        "samples": int(timed.weight.sum()),
        "attempted": int(timed.weight.sum()),
        "failed": timed.failed,
        "metrics": metrics,
        "extra": extra,
        "digest": check.digest(d for d in timed.decisions if d is not None),
    }
    if tracer is not None:
        result["layers"], frame = layers.per_layer(
            list(PER_LAYER), workload.family, timed, tracer, gc_watch,
            inputs.before_kill,
        )
        path = OUT / f"trace-{workload.name}.jsonl"
        result["spans_written"] = trace.write_spans(tracer, frame, path)
        result["spans_recorded"] = len(frame["code"])
    if args.verify:
        result["checks"] = workloads.verify(inputs, state, timed)
        result["checks"].append(check.check_stream(
            inputs.key, inputs.jobs, state.prefix_decisions + timed.decisions
        ))
        if "direct_per_s" in timed.extra:  # the direct pass verification timed
            extra["direct_per_s"] = timed.extra["direct_per_s"]
    print(json.dumps(result))
    return 0


def spawn(name: str, args: argparse.Namespace, *flags: str) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--spawned", repr(time.time()), *flags,
    ]
    # One hash seed for every child: dict and set layouts repeat.
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=170,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        sys.exit(done.returncode)
    return json.loads(done.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: runs, aggregation, reports
# ---------------------------------------------------------------------------


def run_workload(name: str, args: argparse.Namespace) -> dict[str, object]:
    """One run of one workload.

    Untraced: ``SETUPS - 1`` children that only set up, then one that sets
    up, runs the timed lap and verifies its decisions; ``setup_s`` is the
    median of the set-ups.  Traced: one untraced and one traced child;
    end-to-end values still come from the untraced one, the difference
    between the two walls is the tracing overhead, and the traced child's
    decisions must digest like the verified ones.
    """
    from e2e.workloads import SETUPS

    if args.trace:
        plans = [("--verify",), ("--trace", "1")]
    else:
        plans = [("--setup-only",)] * (SETUPS - 1) + [("--verify",)]
    if args.smoke:  # nothing is being timed: use both cores
        with ThreadPoolExecutor(len(plans)) as pool:
            children = list(pool.map(lambda flags: spawn(name, args, *flags), plans))
    else:
        children = [spawn(name, args, *flags) for flags in plans]

    main = next(c for c in children if "checks" in c)
    setups = [c["metrics"]["setup_s"] if "metrics" in c else c["setup_s"]
              for c in children if "layers" not in c]
    main["metrics"]["setup_s"] = statistics.median(setups)
    checks = main["checks"]
    out: dict[str, object] = {
        key: main[key]
        for key in ("workload", "seed", "wall_s", "operations", "samples",
                    "attempted", "metrics", "extra")
    }
    if args.trace:
        hot = children[1]
        checks.append({
            "ok": hot["digest"] == main["digest"],
            "reference": "untraced",
            "detail": "traced and untraced lap decided "
            + ("identically" if hot["digest"] == main["digest"] else "DIFFERENTLY"),
        })
        layer = dict(hot["layers"])
        for metric, key in UNTRACED_EXTRAS.items():
            layer[metric] = main["extra"].get(key, 0.0)
        if name == "svc_flood":  # the other service workloads are not rate-bound
            layer["service.over_direct"] = (
                main["extra"]["direct_per_s"] / main["extra"]["raw_decisions_per_s"]
            )
        layer["trace.overhead_share"] = hot["lap_s"] / main["lap_s"] - 1.0
        out["layers"] = layer
        out["spans"] = f"{hot['spans_written']} of {hot['spans_recorded']}"
    out.update(
        setups=len(setups),
        failed=sum(c.get("failed", 0) for c in children),
        correct=all(c["ok"] for c in checks),
        checks=checks,
    )
    return out


def report(result: dict[str, object], traced: bool, label: str = "") -> None:
    name = result["workload"]
    print(
        f"\n{name}{label}: seed {result['seed']}, {result['operations']} operations "
        f"({result['samples']} latency samples) in {result['wall_s']:.3f} s, "
        f"{result['setups']} set-ups, {result['failed']} failed of {result['attempted']}"
    )
    for check in result["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['reference']}: {check['detail']}")
    for metric, spec in END_TO_END.items():
        print(f"  {metric:<38}{result['metrics'][metric]:>16.4f} {spec['unit']}")
    for key, value in sorted(result["extra"].items()):
        print(f"  ({key:<36}{value:>16.6f})")
    if traced:
        print(f"  -- per layer (spans written: {result['spans']})")
        for metric, spec in PER_LAYER.items():
            print(f"  {metric:<38}{result['layers'][metric]:>16.4f} {spec['unit']}")
        if result["layers"]["loadgen.late_p99_ms"] > LATE_FLAG_MS:
            print("  FLAG: the open-loop generator itself ran later than the latency limit")


def driver_line(results: list[dict[str, object]], traced: bool) -> str:
    """The contract's last line; metric names are prefixed when several
    workloads ran in one command."""
    spec, field = (PER_LAYER, "layers") if traced else (END_TO_END, "metrics")
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for metric, meta in spec.items():
            metrics[prefix + metric] = {
                "value": result[field][metric], "unit": meta["unit"]
            }
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def run_set(args: argparse.Namespace, label: str = "") -> list[dict[str, object]]:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    results = []
    for name in names:
        result = run_workload(name, args)
        report(result, args.trace, label)
        results.append(result)
    return results


def worse_by(spec: dict[str, object], base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if spec["better"] == "lower" else -change


def agree(args: argparse.Namespace) -> int:
    """N full sets back to back; every pair must agree within the bounds."""
    sets = [run_set(args, f" [set {k + 1}/{args.agree}]") for k in range(args.agree)]
    print(f"\nagreement of {args.agree} sets (spread = (max - min) / min):")
    failures = 0
    for i, name in enumerate(r["workload"] for r in sets[0]):
        for metric, spec in END_TO_END.items():
            values = [s[i]["metrics"][metric] for s in sets]
            spread = (max(values) - min(values)) / min(values)
            ok = spread <= spec["bound"]
            failures += not ok
            shown = ", ".join(f"{v:.4f}" for v in values)
            print(
                f"  {'ok  ' if ok else 'FAIL'} {name:<14}{metric:<18}{shown} "
                f"{spec['unit']}  spread {spread:.3f}  bound {spec['bound']}"
            )
        for key in sorted(set(UNTRACED_EXTRAS.values()) & set(sets[0][i]["extra"])):
            values = [s[i]["extra"][key] for s in sets]
            spread = (max(values) - min(values)) / min(values) if min(values) else 0.0
            shown = ", ".join(f"{v:.4f}" for v in values)
            print(f"  --   {name:<14}{key:<18}{shown}  spread {spread:.3f}  unbounded")
        failed = sum(s[i]["failed"] for s in sets)
        failures += failed > 0
        print(f"  {'ok  ' if not failed else 'FAIL'} {name:<14}failed operations: {failed}")
    correct = all(r["correct"] for s in sets for r in s)
    print(driver_line(sets[-1], args.trace))
    return 0 if correct and not failures else 1


def compare(path_a: str, path_b: str) -> int:
    """Per (workload, metric): is B worse than A by more than the bound?"""
    from e2e import env

    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if not env.comparable(a["environment"], b["environment"]):
        print(
            "refusing to compare: the two results were measured in different "
            f"environments\n  A: {a['environment']['host']}\n  B: {b['environment']['host']}"
        )
        return 2
    if a["comparable"] is not True or b["comparable"] is not True:
        print("refusing to compare: a --smoke result is not a measurement")
        return 2
    worse = 0
    by_name = {r["workload"]: r for r in b["results"]}
    for ra in a["results"]:
        rb = by_name.get(ra["workload"])
        if rb is None:
            continue
        for metric, spec in END_TO_END.items():
            delta = worse_by(spec, ra["metrics"][metric], rb["metrics"][metric])
            bad = delta > spec["bound"]
            worse += bad
            print(
                f"  {'WORSE' if bad else 'ok   '} {ra['workload']:<14}{metric:<18}"
                f"{ra['metrics'][metric]:>14.4f} -> {rb['metrics'][metric]:>14.4f} "
                f"{spec['unit']}  ({delta:+.3f} of A, bound {spec['bound']})"
            )
    return 1 if worse else 0


def mint(args: argparse.Namespace) -> int:
    """Decide every workload's stream through the oracle path and commit
    the digests (slow: serial scalar Python over deep backlogs)."""
    from e2e import check, workloads

    digests = check.load_digests()
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        inputs = workloads.prepare(workload, args.seed, args.seconds, OUT)
        t0 = time.perf_counter()
        digests[inputs.key] = check.digest(check.oracle_decisions(inputs.jobs))
        print(f"minted {inputs.key} for {name} in {time.perf_counter() - t0:.1f} s")
    check.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="timed seconds per run on the reference sandbox; sets the work")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--agree", type=int, nargs="?", const=2, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--mint", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--output", help="also write the full result to this JSON file")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--verify", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        return child(args)
    if args.compare:
        return compare(*args.compare)
    if args.mint:
        return mint(args)

    from e2e import env

    env.require_compiled_kernel()
    OUT.mkdir(exist_ok=True)
    environment = env.describe(ROOT, OUT)
    print(f"environment: {json.dumps(environment['host'])} commit {environment['commit']}")
    print(f"note: {environment['note']}")
    if args.smoke:
        args.seconds /= SMOKE_SCALE
        args.trace = 1
        print(f"SMOKE: every workload at 1/{SMOKE_SCALE} size; numbers are NOT comparable")
    if args.agree:
        return agree(args)
    results = run_set(args)
    if args.output:
        Path(args.output).write_text(json.dumps({
            "environment": environment,
            "comparable": not args.smoke,
            "seconds": args.seconds,
            "results": results,
        }, indent=1) + "\n")
    print(driver_line(results, bool(args.trace)))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
