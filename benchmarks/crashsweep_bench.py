"""Wall time of the CI crash sweep, a parent checkout against this one.

    python benchmarks/crashsweep_bench.py --parent DIR [--pairs 10] [--pr N]

Runs ``python -m repro.crashsweep --budget 40 --seed 7`` alternately in
the parent checkout *DIR* and in this tree, parent first in each pair,
and empties both trees' ``__pycache__`` before every run (a tree with no
bytecode cache imports slower). Both sides must print the same stdout,
or nothing is filed. Then this tree's sweep runs once more in-process
with ``repro.crashsweep.sweep.compose_image`` wrapped to hash every
composed image: the share of distinct images per unit is what a sweep
that checks each distinct image once would check.

Appends one row per side to ``BENCH_crashsweep.json``: medians of the
runs, every run listed, and a provenance stamp. It reports; it does not
gate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = ROOT / "BENCH_crashsweep.json"
COMMAND = ["repro.crashsweep", "--budget", "40", "--seed", "7"]
_SWEPT = re.compile(r"swept (\d+) crash points, checked (\d+) images")


def clear_bytecode(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def timed_sweep(tree: Path):
    """(wall seconds, stdout) of one CI sweep in *tree*."""
    clear_bytecode(tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", *COMMAND], cwd=tree, env=env,
                         capture_output=True, text=True, check=False)
    return time.perf_counter() - t0, run.stdout


def distinct_images():
    """(distinct, composed) images of this tree's CI sweep, distinct
    counted per (workload, config) unit by sha256 of the composed bytes."""
    sys.path.insert(0, str(ROOT / "src"))
    sweep_mod = importlib.import_module("repro.crashsweep.sweep")
    from repro.crashsweep.workloads import CONFIGS, WORKLOADS

    compose = sweep_mod.compose_image
    digests = []

    def hashing_compose(*args, **kwargs):
        image = compose(*args, **kwargs)
        digests.append(hashlib.sha256(image).digest())
        return image

    sweep_mod.compose_image = hashing_compose
    distinct = composed = 0
    try:
        for name in sorted(WORKLOADS):
            for config in sorted(CONFIGS):
                if config in WORKLOADS[name].supported_configs:
                    digests.clear()
                    sweep_mod.sweep_unit(name, config, budget=40, seed=7)
                    distinct += len(set(digests))
                    composed += len(digests)
    finally:
        sweep_mod.compose_image = compose
    return distinct, composed


def git_rev(tree: Path) -> str:
    """HEAD of *tree*, or "child of HEAD" when its files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True).stdout
    rev = git("rev-parse", "HEAD").strip() or "unknown"
    return f"child of {rev}" if git("status", "--porcelain", "--untracked-files=no").strip() else rev


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pr", type=int, default=None, help="number of the change being filed")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    walls = {side: [] for side in sides}
    outputs = {side: set() for side in sides}
    for pair in range(args.pairs):
        for side, tree in sides.items():
            wall, stdout = timed_sweep(tree)
            walls[side].append(round(wall, 3))
            outputs[side].add(stdout)
        print(f"pair {pair + 1}: parent {walls['parent'][-1]:.2f} s, "
              f"change {walls['change'][-1]:.2f} s", file=sys.stderr)
    if len(outputs["parent"] | outputs["change"]) != 1:
        sys.exit("the two sides printed different sweeps: nothing filed")
    points, images = map(int, _SWEPT.search(outputs["change"].pop()).groups())
    distinct, composed = distinct_images()
    assert composed == images, (composed, images)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.provenance import provenance

    doc = (json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists()
           else {"benchmark": "crashsweep", "rows": []})
    config = {"command": " ".join(["python", "-m", *COMMAND]), "pairs": args.pairs}
    for side, tree in sides.items():
        wall = statistics.median(walls[side])
        quartiles = statistics.quantiles(walls[side], n=4)
        stamp = provenance(7, config, conservation="disabled")
        stamp.update(git_rev=git_rev(tree), python=platform.python_version(),
                     source="alternating pairs, parent first, __pycache__ emptied before each run")
        row = {
            "side": side, "pr": args.pr, "runs": args.pairs, "stat": "median",
            "metrics": {"wall_s": round(wall, 3), "points_per_s": round(points / wall, 1),
                        "images_per_s": round(images / wall, 1)},
            "wall_s_quartiles": [round(q, 3) for q in quartiles],
            "wall_s_runs": walls[side], "points": points, "images": images,
            "provenance": stamp,
        }
        if side == "change":
            row.update(distinct_images=distinct,
                       distinct_image_share=round(distinct / composed, 4))
        doc["rows"].append(row)
        print(f"{side}: median {wall:.2f} s, {points / wall:.1f} points/s, "
              f"{images / wall:.1f} images/s", file=sys.stderr)
    faster = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    print(f"change faster in {faster}/{args.pairs} pairs; distinct images "
          f"{distinct}/{composed}", file=sys.stderr)
    BENCH_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
