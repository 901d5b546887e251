"""The static persistence & concurrency checker (the one static engine).

Every file is parsed once into a whole-program index with call
resolution and summary fixpoints (:mod:`.callgraph`); CFGs per function
(:mod:`.cfg`) and a worklist abstract interpreter (:mod:`.dataflow`)
sit on top of it. The rule passes: persist-state (:mod:`.persist`),
the structural audits — exception paths and the single-file AST rules —
(:mod:`.audit`) and lock order (:mod:`.lockorder`); :mod:`.driver` runs
them all and decides pragmas. ``python -m repro.analysis.flow`` is the
CLI; see docs/analysis.md for domains and soundness caveats.
"""

from repro.analysis.flow.callgraph import FunctionInfo, ProgramIndex
from repro.analysis.flow.cfg import Cfg, CfgNode, build_cfg
from repro.analysis.flow.dataflow import FlowResult, run_forward
from repro.analysis.flow.driver import analyze_files, run_flow
from repro.analysis.flow.report import FLOW_RULES, FlowFinding, TraceStep, to_json, to_sarif

__all__ = [
    "Cfg",
    "CfgNode",
    "FLOW_RULES",
    "FlowFinding",
    "FlowResult",
    "FunctionInfo",
    "ProgramIndex",
    "TraceStep",
    "analyze_files",
    "build_cfg",
    "run_flow",
    "run_forward",
    "to_json",
    "to_sarif",
]
