"""Digests of the checker outputs that a refactor must leave byte-identical.

    python benchmarks/goldens.py               # rewrites GOLDENS.json
    git diff --exit-code GOLDENS.json          # empty: no output moved

Each entry is one command line of the repo's CLIs, run from the repo
root with ``PYTHONPATH=src``, recorded as its exit status and the
sha256 of its stdout:

- ``python -m repro.crashsweep --budget 40 --seed 7`` (the CI sweep) and
  ``--list``;
- ``python -m repro.infer --fs FS --workload W --budget 200 --seed 7``
  for every subject / workload pair the registry names (the planted
  fixture exits 1 by design; its exit status is part of the entry).

A simplicity or performance change regenerates the file and shows an
empty diff. A change that moves an output commits the regenerated file,
and the diff names what moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commands():
    """Every recorded command line, in file order."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.crashsweep.workloads import subjects

    yield ["repro.crashsweep", "--budget", "40", "--seed", "7"]
    yield ["repro.crashsweep", "--list"]
    for fs, (_config, aliases) in sorted(subjects().items()):
        for workload in sorted(aliases):
            yield ["repro.infer", "--fs", fs, "--workload", workload,
                   "--budget", "200", "--seed", "7"]


def digest(args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "GOLDENS.json"))
    args = parser.parse_args(argv)
    entries = {}
    for command in commands():
        line = "python -m " + " ".join(command)
        entries[line] = digest(command)
        print(f"{entries[line]['stdout_sha256'][:12]} exit {entries[line]['exit']}  {line}",
              file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"goldens": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
