"""The static engine's driver: files -> findings.

Pipeline: parse everything once into one :class:`ProgramIndex` (the
whole file set is a single program — interprocedural summaries cross
file boundaries), run every rule pass over it — the AST rules, then the
persist-state, exception-path and lock-order analyses — and filter the
result through the ``# analysis: allow(rule) -- reason`` pragma
machinery. A pragma is accepted on (or one line above) the finding's
anchor line *or* any of its ``extra_pragma_lines`` (e.g. the handler
line of an exception-path finding).

Pragma hygiene is decided here, once, against the one rule registry
(:data:`FLOW_RULES`): a pragma that matches a finding but carries no
``-- reason``, or names no known rule, is ``invalid-pragma``; a
justified pragma for a static rule that suppressed nothing is
``stale-pragma``. The dynamic analyzer's rule names are known (not
typos) but never stale — pragmas do not apply to trace findings.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.analysis.analyzer import RULES as TRACE_RULES
from repro.analysis.flow.audit import check_exception_paths, check_syntax_rules
from repro.analysis.flow.callgraph import ProgramIndex
from repro.analysis.flow.lockorder import check_lock_order, compute_lock_summaries
from repro.analysis.flow.persist import (
    check_bulk_validate,
    check_persist,
    compute_persist_summaries,
)
from repro.analysis.flow.report import FLOW_RULES, FlowFinding
from repro.analysis.pragmas import PragmaTable

__all__ = ["analyze_files", "run_flow"]


def analyze_files(
    files: Dict[str, str], modules: Optional[Dict[str, str]] = None
) -> List[FlowFinding]:
    index = ProgramIndex.build(files, modules)

    findings: List[FlowFinding] = [
        FlowFinding("syntax-error", path, line, message)
        for path, line, message in index.errors
    ]
    findings += check_syntax_rules(index)
    persist_summaries = compute_persist_summaries(index)
    findings += check_persist(index, persist_summaries)
    findings += check_bulk_validate(index)
    findings += check_exception_paths(index, persist_summaries)
    lock_summaries = compute_lock_summaries(index)
    findings += check_lock_order(index, lock_summaries)

    tables = {path: PragmaTable(text) for path, text in files.items()}
    kept: List[FlowFinding] = []
    for finding in sorted(findings, key=FlowFinding.sort_key):
        table = tables.get(finding.path)
        if table is not None:
            matching = [
                pragma
                for line in (finding.line,) + finding.extra_pragma_lines
                if (pragma := table.lookup(line, finding.rule)) is not None
            ]
            justified = next((pragma for pragma in matching if pragma.valid), None)
            if justified is not None:
                table.mark_used(justified)
                continue
            for pragma in dict.fromkeys(matching):
                kept.append(
                    FlowFinding(
                        "invalid-pragma",
                        finding.path,
                        pragma.line,
                        f"allow({pragma.rule}) has no '-- reason' justification",
                    )
                )
        kept.append(finding)

    for path in sorted(tables):
        for pragma in tables[path].pragmas:
            if pragma.rule not in FLOW_RULES and pragma.rule not in TRACE_RULES:
                kept.append(
                    FlowFinding(
                        "invalid-pragma",
                        path,
                        pragma.line,
                        f"allow({pragma.rule}) names no known analysis rule",
                    )
                )
        for pragma in tables[path].stale():
            if pragma.rule in FLOW_RULES:
                kept.append(
                    FlowFinding(
                        "stale-pragma",
                        path,
                        pragma.line,
                        f"allow({pragma.rule}) suppresses no finding here; "
                        "remove it or fix the line it points at",
                    )
                )
    kept.sort(key=FlowFinding.sort_key)
    return kept


def iter_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        else:
            files.append(path)
    return sorted(files)


def run_flow(paths: Sequence[str]) -> List[FlowFinding]:
    """Analyze files/directories from disk (one whole-program index)."""
    files: Dict[str, str] = {}
    for file in iter_python_files(paths):
        with open(file, "r", encoding="utf-8") as fh:
            files[file] = fh.read()
    return analyze_files(files)
