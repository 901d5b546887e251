"""Lock-order analysis: ``lock-order-cycle``.

Builds the global lock-*class* acquisition graph. Lock classes are the
discriminating first component of the virtual-lock key tuples the tree
uses everywhere — ``("inode", id)`` -> ``inode``, ``("jbd2",)`` ->
``jbd2`` — plus the MGL constructors ``node_key(...)`` -> ``mgsp`` and
``file_key(...)`` -> ``mgsp-file``. Key expressions that are plain
names are resolved through the nearest preceding assignment in the
same function (``key = self.file_key(fid); rec.lock(key, ...)``), which
keeps the two MGL branches of ``MglLockManager._acquire`` from
smearing into each other.

A held-set dataflow runs over each function's CFG. Acquiring class *c*
while holding *h* adds the edge ``h -> c``; calls are resolved through
the call graph and contribute edges from every held class to every
class the callee may (transitively) acquire — this is what makes the
check interprocedural where the ``mgl-lock-order`` AST rule
(:mod:`.audit`) sees one loop at a time. Intra-class edges
(``mgsp -> mgsp``) are ignored: index-ordering inside one class is that
rule's job.

Findings (both under rule ``lock-order-cycle``):

- a cycle among lock classes (one finding per strongly connected
  component, traced edge by edge);
- an MGL hierarchy violation — acquiring the coarse ``mgsp-file``
  class while holding fine ``mgsp`` node locks (rank order is
  file < node; coarse must come first).

Releases remove the named classes; a release whose key cannot be
resolved (loop variables over caller-provided key lists) clears the
whole held set — optimistic, so stale held state never fabricates
edges.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import FunctionInfo, ProgramIndex, fixpoint
from repro.analysis.flow.cfg import CfgNode, attr_chain
from repro.analysis.flow.dataflow import run_forward
from repro.analysis.flow.report import FlowFinding, TraceStep

__all__ = ["compute_lock_summaries", "check_lock_order"]

RECORDER_NAMES = {"recorder", "rec", "bg_recorder"}

#: MGL hierarchy ranks: lower rank = coarser = must be acquired first
MGL_RANKS = {"mgsp-file": 0, "mgsp": 1}

LockSummary = FrozenSet[str]  # classes the function may (transitively) acquire

#: acquisition-order edge: (held, acquired, path, line)
Edge = Tuple[str, str, str, int]


def _assignments(fn: FunctionInfo) -> List[Tuple[int, str, ast.AST]]:
    out: List[Tuple[int, str, ast.AST]] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                out.append((node.lineno, target.id, node.value))
    out.sort(key=lambda t: t[0])
    return out


def _key_classes(
    expr: ast.AST,
    assigns: List[Tuple[int, str, ast.AST]],
    use_line: int,
    depth: int = 0,
) -> Set[str]:
    """Lock classes a key expression may denote (empty = unknown)."""
    if depth > 4:
        return set()
    if isinstance(expr, ast.Tuple) and expr.elts:
        first = expr.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return {first.value}
        return set()
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain:
            if chain[-1] == "node_key":
                return {"mgsp"}
            if chain[-1] == "file_key":
                return {"mgsp-file"}
        return set()
    if isinstance(expr, ast.Name):
        best: Optional[ast.AST] = None
        for lineno, name, value in assigns:
            if name == expr.id and lineno <= use_line:
                best = value  # nearest preceding assignment wins
        if best is not None:
            return _key_classes(best, assigns, use_line, depth + 1)
    return set()


def _lock_event(call: ast.Call) -> Optional[Tuple[str, Optional[ast.AST]]]:
    """``("acquire"|"release", key_expr)`` for direct lock primitives;
    MGL manager calls use the sentinel key ``None``."""
    chain = attr_chain(call.func)
    if len(chain) < 2:
        return None
    method, recv = chain[-1], chain[-2]
    if recv in RECORDER_NAMES and method in ("lock", "unlock") and call.args:
        return ("acquire" if method == "lock" else "release", call.args[0])
    if "mgl" in chain[:-1]:
        if method == "acquire":
            return ("acquire", None)
        if method in ("release", "release_retained"):
            return ("release", None)
    return None


_MGL_CLASSES = {"mgsp", "mgsp-file"}


class _LockPass:
    def __init__(self, index: ProgramIndex, summaries: Dict[str, LockSummary]) -> None:
        self.index = index
        self.summaries = summaries
        self.edges: Set[Edge] = set()
        self.violations: Set[Tuple[str, str, str, int]] = set()

    def _record_acquire(
        self, held: FrozenSet[str], classes: Set[str], path: str, line: int
    ) -> None:
        for c in sorted(classes):
            for h in sorted(held):
                if h == c:
                    continue
                self.edges.add((h, c, path, line))
                if (
                    h in MGL_RANKS
                    and c in MGL_RANKS
                    and MGL_RANKS[c] < MGL_RANKS[h]
                ):
                    self.violations.add((h, c, path, line))

    def analyze(self, fn: FunctionInfo) -> "FrozenSet[str]":
        assigns = _assignments(fn)

        def transfer(node: CfgNode, state: FrozenSet[str]) -> FrozenSet[str]:
            for call in node.calls:
                event = _lock_event(call)
                if event is not None:
                    action, key = event
                    classes = (
                        set(_MGL_CLASSES)
                        if key is None
                        else _key_classes(key, assigns, call.lineno)
                    )
                    if action == "acquire":
                        self._record_acquire(state, classes, fn.path, call.lineno)
                        state = state | frozenset(classes)
                    elif classes:
                        state = state - frozenset(classes)
                    else:  # unresolvable key: assume it releases everything
                        state = frozenset()
                    continue
                acquires = self._callee_acquires(call, fn)
                if acquires and state:
                    self._record_acquire(state, acquires, fn.path, call.lineno)
            return state

        result = run_forward(fn.cfg, frozenset(), transfer)
        exit_state = result.exit_state or frozenset()
        return exit_state

    def _callee_acquires(self, call: ast.Call, caller: FunctionInfo) -> Set[str]:
        candidates = self.index.resolve(call, caller)
        if not candidates:
            return set()
        sets = [
            self.summaries.get(c.qualname + "@" + c.path, frozenset())
            for c in candidates
        ]
        out = set(sets[0])
        for s in sets[1:]:
            out &= s  # ambiguous resolution: only certain acquires count
        return out

    def summary_of(self, fn: FunctionInfo) -> LockSummary:
        acquired: Set[str] = set()
        assigns = _assignments(fn)
        for node in fn.cfg.nodes.values():
            for call in node.calls:
                event = _lock_event(call)
                if event is not None:
                    action, key = event
                    if action == "acquire":
                        acquired |= (
                            set(_MGL_CLASSES)
                            if key is None
                            else _key_classes(key, assigns, call.lineno)
                        )
                else:
                    acquired |= self._callee_acquires(call, fn)
        return frozenset(acquired)


def compute_lock_summaries(index: ProgramIndex) -> Dict[str, LockSummary]:
    scratch = _LockPass(index, {})

    def compute(fn: FunctionInfo, summaries: Dict[str, LockSummary]) -> LockSummary:
        scratch.summaries = summaries
        return scratch.summary_of(fn)

    return fixpoint(
        index.functions, compute, key=lambda fn: fn.qualname + "@" + fn.path
    )


def _find_cycles(edges: Set[Edge]) -> List[List[str]]:
    """One representative cycle per strongly connected component."""
    graph: Dict[str, Set[str]] = {}
    for h, c, _p, _l in edges:
        graph.setdefault(h, set()).add(c)
        graph.setdefault(c, set())

    # Tarjan's SCC, iterative
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))

    for node in sorted(graph):
        if node not in index_of:
            strongconnect(node)

    cycles: List[List[str]] = []
    for scc in sccs:
        members = set(scc)
        # walk greedily inside the SCC from its smallest member
        path = [scc[0]]
        seen = {scc[0]}
        while True:
            nxt = sorted(n for n in graph[path[-1]] if n in members)
            step = next((n for n in nxt if n not in seen), None)
            if step is None:
                closing = next((n for n in nxt if n in seen), path[0])
                path = path[path.index(closing) :]
                break
            path.append(step)
            seen.add(step)
        cycles.append(path)
    return cycles


def check_lock_order(
    index: ProgramIndex, summaries: Dict[str, LockSummary]
) -> List[FlowFinding]:
    lock_pass = _LockPass(index, summaries)
    for fn in index.functions:
        lock_pass.analyze(fn)

    findings: List[FlowFinding] = []

    first_site: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for h, c, path, line in sorted(lock_pass.edges):
        first_site.setdefault((h, c), (path, line))

    for cycle in _find_cycles(lock_pass.edges):
        ring = cycle + [cycle[0]]
        trace = []
        for a, b in zip(ring, ring[1:]):
            site = first_site.get((a, b))
            if site is not None:
                trace.append(
                    TraceStep(site[0], site[1], f"'{b}' acquired while holding '{a}'")
                )
        anchor = trace[0] if trace else TraceStep("<unknown>", 0, "")
        findings.append(
            FlowFinding(
                rule="lock-order-cycle",
                path=anchor.path,
                line=anchor.line,
                message=(
                    "lock-acquisition cycle: " + " -> ".join(ring)
                ),
                trace=trace,
            )
        )

    reported: Set[Tuple[str, str]] = set()
    for h, c, path, line in sorted(lock_pass.violations):
        if (h, c) in reported:
            continue
        reported.add((h, c))
        findings.append(
            FlowFinding(
                rule="lock-order-cycle",
                path=path,
                line=line,
                message=(
                    f"MGL hierarchy violation: coarse '{c}' acquired while "
                    f"holding fine '{h}' (coarse locks must come first)"
                ),
                trace=[
                    TraceStep(path, line, f"'{c}' acquired here with '{h}' held"),
                ],
            )
        )
    return findings
