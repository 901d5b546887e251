"""CLI: replay a workload (or a corpus program) under the analyzer.

Examples::

    python -m repro.analysis --workload fio --config mgsp-sync
    python -m repro.analysis --workload txn --config mgsp-async --budget 20000
    python -m repro.analysis --program tests/analysis_corpus/torn_multiword.py
    python -m repro.analysis --corpus tests/analysis_corpus

Exit status: workload mode fails (1) on *error*-severity findings —
perf diagnostics (redundant flush/fence) are reported but informational
unless ``--strict`` promotes them. Program/corpus mode fails on any
finding at all (the corpus is a violation suite; its ``clean/`` twins
must produce zero findings of any severity).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.corpus import run_corpus, run_fixture
from repro.analysis.harness import run_program, run_workload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="persistence-order trace analysis",
    )
    parser.add_argument(
        "--workload",
        help="crash-sweep workload name or alias (fio, txn, ycsb, fio-write, ...)",
    )
    parser.add_argument(
        "--config",
        default="mgsp-sync",
        help="config name or alias (mgsp-sync, mgsp-async, sync, async)",
    )
    parser.add_argument("--program", help="run one violation-corpus program")
    parser.add_argument("--corpus", help="run a whole corpus directory (self-test)")
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="stop analyzing after N persistence events (CI cap)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="workload mode: fail on perf diagnostics too",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed quoted in reproducer lines")
    parser.add_argument(
        "--bundle-dir",
        metavar="DIR",
        default=None,
        help="workload mode: write a black-box bundle per failing finding "
        "into DIR (capped at 5)",
    )
    args = parser.parse_args(argv)

    if args.program:
        return run_fixture(args.program, run_program)
    if args.corpus:
        return run_corpus(args.corpus, run_program)
    if not args.workload:
        parser.error("one of --workload, --program, --corpus is required")

    report = run_workload(
        args.workload,
        args.config,
        max_events=args.budget,
        seed=args.seed,
    )
    print(report.format())
    failing: List = report.findings if args.strict else report.errors

    if args.bundle_dir and failing:
        from repro.nvm.crash import CrashPolicy
        from repro.obs import blackbox

        for finding in failing[:5]:
            bundle = blackbox.capture(
                report.workload,
                report.config_name,
                finding.event_index,
                seed=args.seed,
                policy=CrashPolicy.KEEP_ALL,  # matches the reproducer line
                kind="analysis-finding",
                violations=[f"{finding.rule}: {finding.message}"],
                reproducer=report.reproducer(finding),
                extra={"rule": finding.rule, "severity": finding.severity},
            )
            path = blackbox.write_bundle(
                bundle,
                args.bundle_dir,
                name=f"blackbox-analysis-{finding.rule}-at{finding.event_index}.json",
            )
            print(f"black-box bundle: {path}")

    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
