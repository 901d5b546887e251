"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                 # run everything, print tables
    python -m repro.bench fig08-write tab02
    python -m repro.bench --list
    python -m repro.bench -o report.txt   # also write a report file
    python -m repro.bench tab02 --breakdown tab02.obs.json
                                          # + per-run telemetry sidecar
    python -m repro.bench e2e [--workload W] [--seed N] [--seconds S]
                                          # run benchmarks/e2e/run.py, append
                                          # rows to BENCH_e2e.json (bench/e2e.py)

This is the reproduction's equivalent of the artifact's
``evaluation/fio/scripts/run_all.sh``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.figures import EXPERIMENTS, run_all


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["e2e"]:
        from repro.bench.e2e import main as e2e_main

        return e2e_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("experiments", nargs="*", help="experiment names (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument("-o", "--output", help="write the report to this file")
    parser.add_argument(
        "--breakdown",
        help="write a JSON sidecar with per-run telemetry breakdowns "
        "(fig13-style layer attribution for every figure run)",
    )
    parser.add_argument(
        "--perfetto",
        metavar="FILE",
        help="write a merged Chrome trace-event JSON of every run's span "
        "timeline (one Perfetto process per run; load at ui.perfetto.dev)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    breakdowns = None
    if args.breakdown:
        from repro.bench.harness import collect_breakdowns

        breakdowns = []
        collect_breakdowns(breakdowns)

    traces = None
    if args.perfetto:
        from repro.bench.harness import collect_perfetto

        traces = []
        collect_perfetto(traces)

    sections = []
    start = time.time()
    try:
        for name, text in run_all(
            args.experiments or None,
            progress=lambda n: print(f"[{time.time() - start:6.1f}s] running {n} ...", file=sys.stderr),
        ):
            block = f"\n{'=' * 70}\n{text}\n"
            print(block)
            sections.append(block)
    finally:
        if breakdowns is not None:
            from repro.bench.harness import collect_breakdowns

            collect_breakdowns(None)
        if traces is not None:
            from repro.bench.harness import collect_perfetto

            collect_perfetto(None)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write("MGSP reproduction report\n")
            fh.writelines(sections)
        print(f"report written to {args.output}", file=sys.stderr)
    if args.breakdown:
        import json

        with open(args.breakdown, "w") as fh:
            json.dump(breakdowns, fh, indent=2, sort_keys=True)
        print(
            f"breakdown sidecar ({len(breakdowns)} runs) written to {args.breakdown}",
            file=sys.stderr,
        )
    if args.perfetto:
        from repro.obs import perfetto

        merged = {
            "traceEvents": [ev for doc in traces for ev in doc["traceEvents"]],
            "displayTimeUnit": "ns",
        }
        perfetto.validate(merged)
        with open(args.perfetto, "w", encoding="utf-8") as fh:
            fh.write(perfetto.render(merged))
        print(
            f"perfetto trace ({len(traces)} runs) written to {args.perfetto}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
