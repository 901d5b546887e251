"""``python -m repro.infer`` — mine and falsify persistence invariants.

Examples::

    # mine MGSP-sync fio invariants, falsify with a 200-point budget
    python -m repro.infer --workload fio --fs mgsp --budget 200 --seed 7

    # strict mode: any true bug OR unretired benign reordering fails
    python -m repro.infer --workload txn --fs mgsp --strict

    # the planted-bug fixture (must exit nonzero)
    python -m repro.infer --workload toy --fs planted

Exit codes: 0 clean, 1 true bugs found (always) or unretired benign
reorderings (``--strict`` only), 2 usage errors.

The JSON report goes to stdout (or ``--out``) and is byte-deterministic
for fixed arguments; the human summary goes to stderr so redirecting
stdout captures pure JSON.
"""

from __future__ import annotations

import argparse
import sys

from repro.crashsweep.workloads import resolve, subjects
from repro.infer.falsify import TRUE_BUG, falsify
from repro.infer.miner import mine
from repro.infer.report import build_report, render
from repro.infer.subjects import collect_traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.infer",
        description="inferred-invariant crash testing (mine → falsify → triage)",
    )
    parser.add_argument(
        "--workload",
        default="fio",
        help="workload alias (fio/txn/ycsb/mpsc/toy; default fio)",
    )
    parser.add_argument(
        "--fs",
        default="mgsp",
        choices=sorted(subjects()),
        help="subject system (default mgsp)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=200,
        help="falsification budget: policy points + surgical probes (default 200)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    parser.add_argument(
        "--min-support",
        type=int,
        default=5,
        help="min observations for a candidate to be falsified (default 5)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=3,
        help="passing runs to mine (1 canonical + N-1 reseeded variants; default 3)",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="stop collecting after N events per run (default unlimited)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on benign reorderings that lack a retirement entry",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here instead of stdout"
    )
    parser.add_argument(
        "--bundle-dir",
        metavar="DIR",
        default=None,
        help="write a black-box bundle per true bug into DIR "
        "(flight-recorder tail, metrics, held locks, reproducer)",
    )
    args = parser.parse_args(argv)

    try:
        workload_name, config_name = resolve(args.fs, args.workload)
    except ValueError as exc:
        parser.error(str(exc))

    traces = collect_traces(
        workload_name, config_name, runs=args.runs, max_events=args.max_events
    )
    candidates = mine(traces)
    verdicts = falsify(
        candidates,
        workload_name,
        config_name,
        args.fs,
        budget=args.budget,
        seed=args.seed,
        min_support=args.min_support,
    )
    report = build_report(
        args.fs,
        args.workload,
        workload_name,
        config_name,
        traces,
        verdicts,
        budget=args.budget,
        seed=args.seed,
        min_support=args.min_support,
    )
    text = render(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    summary = ", ".join(f"{k}={v}" for k, v in report["summary"].items())
    print(
        f"{args.fs}/{args.workload}: {len(report['candidates'])} candidates "
        f"({summary or 'none'})",
        file=sys.stderr,
    )
    for verdict in verdicts:
        if verdict.status == TRUE_BUG:
            c = verdict.candidate
            print(
                f"TRUE BUG {c.family}({c.a}{' -> ' + c.b if c.b else ''}): "
                f"{verdict.reason}",
                file=sys.stderr,
            )

    if args.bundle_dir:
        from repro.obs import blackbox

        for verdict in verdicts:
            if verdict.status != TRUE_BUG:
                continue
            c = verdict.candidate
            extra = {
                "candidate": {"family": c.family, "a": c.a, "b": c.b},
                "minimized_words": verdict.minimized_words,
            }
            failure = verdict.policy_failure
            if failure is not None:
                bundle = blackbox.capture(
                    workload_name,
                    config_name,
                    failure.crash_after,
                    seed=args.seed,
                    policy=failure.policy,
                    kind="infer-true-bug",
                    violations=failure.violations,
                    reproducer=failure.reproducer,
                    extra=extra,
                )
            else:
                # surgical bug: the minimized keep-set pins the image
                at = verdict.target_points[0]
                reproducer = verdict.reproducer or (
                    f"python -m repro.infer --fs {args.fs} --workload {args.workload}"
                    f" --budget {args.budget} --seed {args.seed}"
                    f" (surgical probe at event {at})"
                )
                bundle = blackbox.capture(
                    workload_name,
                    config_name,
                    at,
                    seed=args.seed,
                    persist_words=verdict.minimized_words,
                    kind="infer-true-bug",
                    reproducer=reproducer,
                    extra=extra,
                )
            path = blackbox.write_bundle(bundle, args.bundle_dir)
            print(f"black-box bundle: {path}", file=sys.stderr)

    if report["true_bugs"]:
        return 1
    if args.strict and report["unretired_benign"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
