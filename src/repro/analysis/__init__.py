"""Persistence-order analysis: one dynamic engine, one static engine.

- ``repro.analysis.analyzer`` — the dynamic engine: a fold over the
  flight recorder's entries that checks the MGSP ordering protocol over
  the store/flush/fence stream, live or saved.
- ``repro.analysis.flow`` — the static engine: AST, CFG and call-graph
  rules over ``src/repro`` (``python -m repro.analysis.flow``).
- ``repro.analysis.harness`` — follow a mounted fs's recorder, replay
  crash-sweep workloads, execute violation-corpus programs.
- ``python -m repro.analysis`` — the dynamic CLI; see ``--help``.
"""

from repro.analysis.analyzer import (
    ERROR,
    PERF,
    RULES,
    Finding,
    RegionMap,
    TraceAnalyzer,
)
from repro.analysis.harness import (
    AnalysisReport,
    ProgramCtx,
    attach_analyzer,
    program_context,
    run_program,
    run_workload,
)

__all__ = [
    "ERROR",
    "PERF",
    "RULES",
    "AnalysisReport",
    "Finding",
    "ProgramCtx",
    "RegionMap",
    "TraceAnalyzer",
    "attach_analyzer",
    "program_context",
    "run_program",
    "run_workload",
]
