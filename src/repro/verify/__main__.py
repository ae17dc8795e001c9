"""Command-line front end for the verification tooling.

Examples::

    # 200 random cases through the full differential/metamorphic matrix
    python -m repro.verify --fuzz 200 --seed 7

    # nightly depth, persisting shrunk reproducers into the corpus
    python -m repro.verify --fuzz 5000 --seed 1 --max-jobs 8 \\
        --corpus tests/corpus

    # greedy-vs-oracle optimality gap on 200 random small instances
    python -m repro.verify --oracle 200 --seed 11

    # the auditor's own mutation self-test
    python -m repro.verify --selftest

    # replay every persisted corpus entry
    python -m repro.verify --replay-corpus tests/corpus

Exit status 0 when every requested check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _run_selftest() -> list[str]:
    """Every seeded mutant must be flagged; the clean baseline must pass."""
    from repro.verify.mutants import audit_scenario, build_all_mutants, clean_baseline

    failures: list[str] = []
    control = clean_baseline()
    codes = audit_scenario(control)
    if codes:
        failures.append(f"clean baseline dirty: {sorted(codes)}")
    scenarios = build_all_mutants()
    caught = 0
    for scenario in scenarios:
        codes = audit_scenario(scenario)
        if scenario.expected_code in codes:
            caught += 1
        else:
            failures.append(
                f"mutant {scenario.name}: expected [{scenario.expected_code}]"
                f", got {sorted(codes) or 'a clean audit'}"
            )
    print(f"selftest: auditor caught {caught}/{len(scenarios)} mutants")
    return failures


def _replay_corpus(corpus_dir: Path) -> list[str]:
    from repro.verify.corpus import corpus_files, replay_corpus_file

    entries = corpus_files(corpus_dir)
    if not entries:
        return [f"no corpus entries under {corpus_dir}"]
    failures = [
        f"{path.name}: {why}" for path in entries for why in replay_corpus_file(path)
    ]
    print(f"corpus: replayed {len(entries)} entr(ies) from {corpus_dir}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Independent verification: fuzz, oracle, selftest, corpus.",
    )
    parser.add_argument(
        "--fuzz", type=int, metavar="N", help="run N random differential cases"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=6,
        help="jobs per fuzz case (default 6; nightly uses 8)",
    )
    parser.add_argument(
        "--malleable-share",
        type=float,
        default=0.25,
        help="fraction of fuzz cases using the malleable model",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        help="persist shrunk fuzz reproducers into DIR",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failing fuzz cases unshrunk (faster triage runs)",
    )
    parser.add_argument(
        "--oracle",
        type=int,
        metavar="N",
        help="compare greedy vs the exhaustive oracle on N random instances",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the auditor's seeded-mutant self-test",
    )
    parser.add_argument(
        "--replay-corpus",
        metavar="DIR",
        nargs="?",
        const="tests/corpus",
        help="replay every corpus entry (default DIR: tests/corpus)",
    )
    args = parser.parse_args(argv)

    if not any((args.fuzz, args.oracle, args.selftest, args.replay_corpus)):
        parser.print_help()
        return 2

    failures: list[str] = []

    if args.selftest:
        failures += _run_selftest()

    if args.fuzz:
        from repro.verify.fuzz import fuzz

        report = fuzz(
            args.fuzz,
            args.seed,
            malleable_share=args.malleable_share,
            max_jobs=args.max_jobs,
            corpus_dir=args.corpus,
            shrink_failures=not args.no_shrink,
        )
        print(report.summary())
        if not report.ok:
            failures.append(
                f"fuzz: {len(report.failures)} failing case(s), see above"
            )

    if args.oracle:
        from repro.verify.checks import greedy_vs_oracle

        gap = greedy_vs_oracle(args.oracle, args.seed)
        print(gap.summary())
        if not gap.ok:
            failures.append("oracle: optimality-bound violations, see above")

    if args.replay_corpus:
        failures += _replay_corpus(Path(args.replay_corpus))

    if failures:
        print(f"\n{len(failures)} verification failure(s):", file=sys.stderr)
        for why in failures:
            print(f"  {why}", file=sys.stderr)
        return 1
    print("all verification checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
