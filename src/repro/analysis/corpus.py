"""The EXPECT-protocol corpus runner both analysis CLIs share.

A corpus is a directory of violating fixtures (each declares the rules
it must trip in a module-level ``EXPECT = [...]``) with a ``clean/``
subdirectory of conforming twins that must produce no finding at all.
What "running a fixture" means is the caller's business — executing a
program under the trace analyzer, or analyzing a file statically — so
the runner takes it as ``fixture(path) -> (findings, expect)``;
findings only need a ``rule`` and a ``format()``.

Exit statuses: 0 no findings, 1 findings (all EXPECTed rules fired),
2 an EXPECTed rule stayed silent (or, for a corpus, any fixture ended
in the wrong one of those states).
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, Tuple

__all__ = ["run_fixture", "run_corpus"]

Fixture = Callable[[str], Tuple[Sequence, List[str]]]


def run_fixture(path: str, fixture: Fixture) -> int:
    findings, expect = fixture(path)
    print(f"fixture {path}: {len(findings)} finding(s); EXPECT={expect}")
    for finding in findings:
        print("  " + finding.format())
    fired = {f.rule for f in findings}
    missing = [rule for rule in expect if rule not in fired]
    if missing:
        print(f"  MISSING expected rule(s): {missing}")
        return 2
    return 1 if findings else 0


def run_corpus(directory: str, fixture: Fixture) -> int:
    """Violating fixtures at the top level must trip their EXPECT rules;
    everything under ``clean/`` must produce zero findings."""
    status = 0
    top = sorted(
        f for f in os.listdir(directory) if f.endswith(".py") and f != "__init__.py"
    )
    for name in top:
        rc = run_fixture(os.path.join(directory, name), fixture)
        if rc != 1:  # violating fixtures are *supposed* to exit 1
            print(f"  UNEXPECTED: {name} exited {rc} (wanted findings matching EXPECT)")
            status = 2
    clean_dir = os.path.join(directory, "clean")
    if os.path.isdir(clean_dir):
        for name in sorted(f for f in os.listdir(clean_dir) if f.endswith(".py")):
            rc = run_fixture(os.path.join(clean_dir, name), fixture)
            if rc != 0:
                print(f"  UNEXPECTED: clean/{name} produced findings")
                status = 2
    print("corpus", directory, "OK" if status == 0 else "FAILED")
    return status
