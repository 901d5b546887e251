"""CLI: replay a workload with telemetry and export the results.

Examples::

    python -m repro.obs --workload fio --config mgsp-sync
    python -m repro.obs --workload txn --config mgsp-async --format json
    python -m repro.obs --workload fio --config mgsp-sync \\
        --format prometheus --out metrics.prom
    python -m repro.obs --workload ycsb --format perfetto --out trace.json
    python -m repro.obs postmortem blackbox-…-at4.json

Formats: ``report`` (default; the human fig13-style breakdown),
``json`` (deterministic snapshot — identical runs diff empty),
``prometheus`` (text exposition format), and ``perfetto``
(Chrome trace-event JSON — load the file at https://ui.perfetto.dev).

The ``postmortem`` subcommand correlates a black-box bundle from
:mod:`repro.obs.blackbox` with a deterministic replay and narrates the
failure: which words were non-durable, which protocol steps wrote them,
and which fence would have saved them.

Exit status: 0 on success; 2 when the conservation self-check fails
(per-layer sums not equal to the run totals — an instrumentation bug,
never expected in CI); postmortem exits 3 when the bundle's failure
does not reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.obs import attribution, exporters


def _workload_registry() -> str:
    """The full crash-sweep registry (fixtures included) plus the
    ``mgsp`` aliases — the vocabulary this CLI accepts for ``--workload``."""
    from repro.crashsweep.workloads import registry, subjects

    _, aliases = subjects()["mgsp"]
    pairs = ", ".join(f"{k}->{v}" for k, v in sorted(aliases.items()) if k != v)
    return f"{', '.join(sorted(registry()))} (aliases: {pairs})"


def _postmortem_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs postmortem",
        description="narrate a black-box bundle: non-durable words, the "
        "spans/protocol steps that wrote them, the fence that would have "
        "saved them",
    )
    parser.add_argument("bundle", help="path to a blackbox-*.json bundle")
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    args = parser.parse_args(argv)

    from repro.obs import blackbox, postmortem

    try:
        bundle = blackbox.load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        print(f"postmortem: cannot load {args.bundle}: {exc}", file=sys.stderr)
        return 2

    report = postmortem.analyze(bundle)
    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = postmortem.render(report)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)

    if not report["reproduced"]:
        print(
            "postmortem: bundle's failure did NOT reproduce on replay",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "postmortem":
        return _postmortem_main(list(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="telemetered workload replay: per-layer virtual-time "
        "and write-amplification breakdowns (see also the `postmortem "
        "BUNDLE` subcommand)",
    )
    parser.add_argument(
        "--workload",
        required=True,
        help="crash-sweep workload name or alias: " + _workload_registry(),
    )
    parser.add_argument(
        "--config",
        default="mgsp-sync",
        help="config name or alias (mgsp-sync, mgsp-async, sync, async)",
    )
    parser.add_argument(
        "--format",
        choices=("report", "json", "prometheus", "perfetto"),
        default="report",
        help="output format (default: report)",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument(
        "--top", type=int, default=10, help="rows in the hottest-spans/lock tables"
    )
    args = parser.parse_args(argv)

    from repro.obs.harness import run_workload

    # perfetto needs the complete span stream, not just the bounded tail
    flight_capacity = 0 if args.format == "perfetto" else None
    try:
        run = run_workload(
            args.workload, args.config, flight_capacity=flight_capacity
        )
    except ValueError as exc:
        parser.error(f"{exc}; valid workloads: {_workload_registry()}")
    tel = run.telemetry

    if args.format == "json":
        text = exporters.to_json(tel) + "\n"
    elif args.format == "prometheus":
        text = exporters.to_prometheus(tel)
    elif args.format == "perfetto":
        from repro.obs import perfetto

        doc = perfetto.from_flight(
            run.flight, workload=run.workload, config=run.config_name
        )
        perfetto.validate(doc)
        text = perfetto.render(doc)
    else:
        header = (
            f"obs: workload={run.workload} config={run.config_name} "
            f"elapsed={tel.total_ns() / 1e6:.3f} ms "
            f"stored={tel.total_bytes():,} bytes\n\n"
        )
        text = header + exporters.to_report(tel, top=args.top) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)

    if not attribution.conserved(tel):
        print("obs: CONSERVATION FAILURE: layer sums != run totals", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
