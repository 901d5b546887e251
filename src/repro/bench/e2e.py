"""``python -m repro.bench e2e``: file what the end-to-end benchmark measured.

Runs the frozen driver (``BENCHMARK.json``'s command, unmodified, one
subprocess per workload) and appends one row per workload to the
root-level ``BENCH_e2e.json``: the end-to-end values of the contract's
last stdout line plus a provenance stamp. Rows carry no timestamp and
are only ever appended — the file is the repo's perf trajectory. A row
also keeps what the untraced driver says above that line: the pass
quartiles, the calibration unit (the box's noise mode, ~250 or ~500 ns)
and ``sim_digest``, the bit-identity evidence. (Rows whose ``source`` is
not ``run`` were filed by hand from a PR's ten-pair table: medians,
with ``pr`` / ``side`` / ``runs`` saying of what.)
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

from repro.bench.provenance import provenance

ROOT = Path(__file__).resolve().parents[3]
BENCH_FILE = ROOT / "BENCH_e2e.json"
_SAID = re.compile(
    r"quartiles ([\d.]+) / ([\d.]+) / ([\d.]+), unit ([\d.]+) ns.*sim_digest ([0-9a-f]{64})", re.DOTALL)


def main(argv=None) -> int:
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in schema["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m repro.bench e2e", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=schema["run_seconds"])
    args = parser.parse_args(argv)

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    doc = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {"benchmark": "e2e", "rows": []}
    status = 0
    for workload in args.workload or names:
        config = {"workload": workload, "seed": args.seed, "seconds": args.seconds}
        flags = [f"--{name}={value}" for name, value in config.items()]
        run = subprocess.run([*schema["command"], *flags], cwd=ROOT, capture_output=True, text=True)
        if not run.stdout.strip():
            sys.exit(f"{workload}: the driver printed nothing (exit {run.returncode})\n{run.stderr}")
        result = json.loads(run.stdout.splitlines()[-1])
        status = max(status, run.returncode)
        stamp = provenance(args.seed, config, conservation="disabled")  # checked by --trace 1 runs only
        stamp.update(git_rev=git.stdout.strip() or "unknown", python=platform.python_version(), source="run")
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        row = {
            "workload": workload, "seconds": args.seconds, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "provenance": stamp,
        }
        said = _SAID.search(run.stdout)
        if said:
            *quartiles, unit_ns = map(float, said.groups()[:4])
            row.update(host_units_quartiles=quartiles, unit_ns=unit_ns, sim_digest=said[5])
        doc["rows"].append(row)
        print(f"{workload}: {metrics['host_units_per_op']:.1f} units/op, failed {result['failed']} of {result['attempted']}")
    BENCH_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return status
