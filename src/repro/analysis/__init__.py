"""Persistence-order analysis: trace analyzer + protocol linter.

- ``repro.analysis.analyzer`` — the dynamic engine: an event tap on
  :class:`~repro.nvm.device.NvmDevice` that checks the MGSP ordering
  protocol over the live store/flush/fence stream.
- ``repro.analysis.lint`` — the static engine: AST rules over
  ``src/repro`` (``python -m repro.analysis.lint``).
- ``repro.analysis.harness`` — attach the tap to a mounted fs, replay
  crash-sweep workloads, execute violation-corpus programs.
- ``python -m repro.analysis`` — the CLI; see ``--help``.
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

# NOTE: repro.analysis.lint is intentionally NOT imported here so that
# ``python -m repro.analysis.lint`` does not trip runpy's already-in-
# sys.modules warning; import it explicitly where needed.

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
