"""Finding model and serialization for the flow checker.

A :class:`FlowFinding` is one diagnostic with a file:line anchor plus a
*trace* — the sequence of program points that make the path real
(store site → handler → op end; or mutation → raise; or the edges of a
lock cycle). Text output prints the trace indented under the finding;
JSON carries it structurally; SARIF 2.1.0 maps it to ``locations`` +
``codeFlows`` so standard viewers can step through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = ["TraceStep", "FlowFinding", "FLOW_RULES", "to_json", "to_sarif"]

#: rule name -> one-line description: the one registry of static rules
#: (AST, CFG and call-graph alike); pragmas are accepted, and checked
#: for staleness, for exactly these names
FLOW_RULES: Dict[str, str] = {
    "raw-store-outside-protocol": "raw device store issued outside sanctioned protocol modules",
    "unfenced-nt-store": "non-temporal store with no reachable fence in the same function",
    "mgl-lock-order": "terminal locks acquired without sorted() ordering",
    "ambient-nondeterminism": "ambient clock/randomness in a crash-replayable path",
    "unfenced-on-exception-path": (
        "a swallowed exception lets an op return normally with a store "
        "that never reached flush+fence"
    ),
    "mutate-before-validate": (
        "a bulk operation can raise a validation error after already "
        "mutating protocol state (half-applied batch)"
    ),
    "lock-order-cycle": (
        "the global lock-acquisition graph contains a cycle or an "
        "MGL-hierarchy violation (coarse lock taken while holding fine)"
    ),
    "exception-path-no-rollback": (
        "stores applied under a try whose handler returns/raises "
        "without rollback, compensation, or stats commit"
    ),
    "invalid-pragma": "analysis pragma without a justification, or for an unknown rule",
    "stale-pragma": "justified allow(...) pragma that suppresses no finding",
    "syntax-error": "file does not parse; nothing was analyzed",
}


@dataclass(frozen=True)
class TraceStep:
    path: str
    line: int
    note: str


@dataclass(frozen=True)
class FlowFinding:
    rule: str
    path: str
    line: int
    message: str
    trace: Tuple[TraceStep, ...] = ()
    #: additional lines where a pragma is accepted for this finding
    #: (e.g. the handler line for an exception-path finding)
    extra_pragma_lines: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.trace, tuple):
            object.__setattr__(self, "trace", tuple(self.trace))

    def format(self) -> str:
        lines = [f"{self.path}:{self.line}: {self.rule}: {self.message}"]
        for step in self.trace:
            lines.append(f"    {step.path}:{step.line}: {step.note}")
        return "\n".join(lines)

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)


def to_json(findings: Sequence[FlowFinding]) -> str:
    payload = {
        "tool": "repro.analysis.flow",
        "rules": FLOW_RULES,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "trace": [
                    {"path": s.path, "line": s.line, "note": s.note} for s in f.trace
                ],
            }
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_location(path: str, line: int, message: str = "") -> dict:
    loc = {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": {"startLine": max(1, line)},
        }
    }
    if message:
        loc["message"] = {"text": message}
    return loc


def to_sarif(findings: Sequence[FlowFinding]) -> str:
    """Minimal valid SARIF 2.1.0 with one run and per-finding codeFlows."""
    results = []
    for f in findings:
        result = {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [_sarif_location(f.path, f.line)],
        }
        if f.trace:
            result["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {"location": _sarif_location(s.path, s.line, s.note)}
                                for s in f.trace
                            ]
                        }
                    ]
                }
            ]
        results.append(result)
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis.flow",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": desc},
                            }
                            for rule, desc in sorted(FLOW_RULES.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
