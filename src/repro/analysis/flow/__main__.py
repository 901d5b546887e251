"""CLI: the static checker (AST, CFG and call-graph rules) over the
source tree.

Examples::

    python -m repro.analysis.flow src/repro            # whole tree
    python -m repro.analysis.flow --strict src/repro   # CI gate
    python -m repro.analysis.flow --sarif out.sarif --json out.json src/repro
    python -m repro.analysis.flow --corpus tests/analysis_corpus/flow

Exit status: 0 clean, 1 findings, 2 corpus/EXPECT mismatch. ``--strict``
is accepted for symmetry with the other CLIs; the checker always treats
every finding (including ``invalid-pragma`` / ``stale-pragma``) as
fatal. Suppress a finding with a justified pragma on the flagged line
(or the line above)::

    something.nt_store(off, data)  # analysis: allow(unfenced-nt-store) -- caller fences

Corpus fixtures are analyzed *as if* they lived in a protocol module
(``repro/core/<name>``) and declare their expectation inline::

    EXPECT = ["mutate-before-validate"]
"""

from __future__ import annotations

import argparse
import ast
import os
from typing import List, Optional, Sequence, Tuple

from repro.analysis.corpus import run_corpus, run_fixture
from repro.analysis.flow.driver import analyze_files, run_flow
from repro.analysis.flow.report import FlowFinding, to_json, to_sarif

__all__ = ["main", "analyze_fixture"]


def parse_expect(text: str) -> Optional[List[str]]:
    """The fixture's module-level ``EXPECT = [...]`` literal, if any."""
    try:
        tree = ast.parse(text)
    except SyntaxError:
        return None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "EXPECT":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        return None
                    if isinstance(value, list):
                        return [str(v) for v in value]
    return None


def analyze_fixture(path: str) -> Tuple[List[FlowFinding], List[str]]:
    """Analyze one corpus fixture under a protocol-module identity."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    module = "repro/core/" + os.path.basename(path)
    findings = analyze_files({path: text}, modules={path: module})
    return findings, parse_expect(text) or []


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description="static persistence & concurrency checker",
    )
    parser.add_argument("paths", nargs="*", help="files/directories (default src/repro)")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on any finding (already the default; kept for CI symmetry)",
    )
    parser.add_argument("--json", metavar="FILE", help="write findings as JSON ('-' for stdout)")
    parser.add_argument("--sarif", metavar="FILE", help="write findings as SARIF 2.1.0 ('-' for stdout)")
    parser.add_argument("--program", help="analyze one corpus fixture (EXPECT-aware)")
    parser.add_argument("--corpus", help="run a flow corpus directory (self-test)")
    args = parser.parse_args(argv)

    if args.corpus:
        return run_corpus(args.corpus, analyze_fixture)
    if args.program:
        return run_fixture(args.program, analyze_fixture)

    paths = args.paths or ["src/repro"]
    findings = run_flow(paths)
    for finding in findings:
        print(finding.format())
    for target, render in ((args.json, to_json), (args.sarif, to_sarif)):
        if target == "-":
            print(render(findings))
        elif target:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(render(findings) + "\n")
    if findings:
        print(f"repro.analysis.flow: {len(findings)} finding(s)")
        return 1
    print("repro.analysis.flow: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
