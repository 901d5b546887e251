"""Structural audits: the checks that need the syntax tree but no
dataflow — ``exception-path-no-rollback`` plus the four single-file AST
rules.

``exception-path-no-rollback`` (per ``try``, over protocol modules):
when the guarded body issues protocol stores (directly, or through a
callee whose summary says it may store) and a handler *terminates the
op* — a top-level ``return`` or ``raise`` in the handler body — the
handler must visibly compensate. Compensation is any of:

- a cleanup/rollback-family call in the handler (``rollback``,
  ``release``, ``retire``, ``checkpoint``, ``unlock``, ...);
- the handler re-issuing protocol stores itself (the device bulk ops'
  per-element fallback loops *re-apply* the batch — that is the
  compensation);
- a ``finally`` on the same ``try`` that commits state (a cleanup
  call, store activity, or a stats ``+=`` commit — the device's
  ``finally: stats.stored_bytes += total`` pattern).

Handlers that merely observe and fall through (``except X: pass``
before a fallback path) never terminate the op and are not flagged.

AST rules (:func:`check_syntax_rules`, one walk per parsed tree):

``raw-store-outside-protocol``
    ``device.store`` / ``nt_store`` (and their vectorized forms) called
    from a module outside the sanctioned protocol layers — persistence
    traffic must flow through the fs/core protocol code, not be issued
    ad hoc by benchmarks, the DB layer, or analysis code itself.
``unfenced-nt-store``
    A function issues a non-temporal store (``nt_store*`` or
    ``store_word_v``) but contains no reachable ``fence``/``persist``/
    ``drain``: the store may never be ordered-durable.
``mgl-lock-order``
    A loop acquiring locks over a ``terminals`` collection without
    ``sorted(...)`` — MGL terminal locks must be acquired in index
    order (the deadlock-avoidance discipline in ``core/locks.py``).
``ambient-nondeterminism``
    ``time.time``-style clocks or ambient ``random`` calls in
    crash-replayable paths, which would break seeded reproducers.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.analysis.flow.callgraph import FunctionInfo, ProgramIndex
from repro.analysis.flow.cfg import attr_chain, calls_in
from repro.analysis.flow.persist import (
    PersistSummary,
    in_protocol_module,
    is_device_call,
    CLEAR_ALL,
    DEVICE_RECEIVERS,
    DIRTY_STORES,
    FENCES,
    PENDING_STORES,
)
from repro.analysis.flow.report import FlowFinding, TraceStep

__all__ = [
    "SANCTIONED_STORE_PREFIXES",
    "REPLAYABLE_PREFIXES",
    "check_exception_paths",
    "check_syntax_rules",
]

#: module prefixes allowed to issue raw device stores (protocol layers)
SANCTIONED_STORE_PREFIXES: Tuple[str, ...] = (
    "repro/nvm",
    "repro/core",
    "repro/fs",
    "repro/fsapi",
)

#: module prefixes whose execution must be seed-deterministic (they run
#: under crash replay / the sweep)
REPLAYABLE_PREFIXES: Tuple[str, ...] = (
    "repro/nvm",
    "repro/core",
    "repro/fs",
    "repro/fsapi",
    "repro/crashsweep",
    "repro/obs",
    "repro/infer",
    "repro/service",
)

_RAW_STORES = frozenset({"store", "nt_store", "store_v", "nt_store_v"})
_ORDERING_CALLS = FENCES | CLEAR_ALL
_TIME_FUNCS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"})
_RANDOM_FUNCS = frozenset(
    {"random", "randrange", "randint", "choice", "choices", "shuffle", "sample", "getrandbits", "uniform"}
)

_CLEANUP_NAMES = {
    "abort",
    "checkpoint",
    "clear",
    "close",
    "discard",
    "forget",
    "free",
    "recover",
    "release",
    "release_retained",
    "reset",
    "restore",
    "retire",
    "rollback",
    "undo",
    "unlock",
}

_STORE_PRIMITIVES = DIRTY_STORES | PENDING_STORES


def _walk_no_defs(node: ast.AST) -> Iterable[ast.AST]:
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _walk_no_defs(child)


def _store_lines(
    stmts: List[ast.stmt],
    fn: FunctionInfo,
    index: ProgramIndex,
    summaries: Dict[str, PersistSummary],
) -> List[int]:
    """Lines in *stmts* where protocol stores are (transitively) issued."""
    lines: List[int] = []
    for stmt in stmts:
        for call in calls_in(stmt):
            primitive = is_device_call(call)
            if primitive is not None:
                if primitive in _STORE_PRIMITIVES:
                    lines.append(call.lineno)
                continue
            for cand in index.resolve(call, fn):
                summ = summaries.get(cand.qualname + "@" + cand.path)
                if summ is not None and summ[3]:  # may_store
                    lines.append(call.lineno)
                    break
    return lines


def _has_cleanup_call(stmts: List[ast.stmt]) -> bool:
    for stmt in stmts:
        for call in calls_in(stmt):
            chain = attr_chain(call.func)
            if chain and chain[-1] in _CLEANUP_NAMES:
                return True
    return False


def _has_stats_commit(stmts: List[ast.stmt]) -> bool:
    return any(
        isinstance(node, ast.AugAssign)
        for stmt in stmts
        for node in _walk_no_defs(stmt)
    )


def _terminal_stmt(handler_body: List[ast.stmt]) -> ast.stmt:
    for stmt in handler_body:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return stmt
    return None


def check_exception_paths(
    index: ProgramIndex, summaries: Dict[str, PersistSummary]
) -> List[FlowFinding]:
    findings: List[FlowFinding] = []
    for fn in index.functions:
        if not in_protocol_module(fn):
            continue
        for node in _walk_no_defs(fn.node):
            if not isinstance(node, ast.Try):
                continue
            stores = _store_lines(node.body, fn, index, summaries)
            if not stores:
                continue
            finally_compensates = bool(node.finalbody) and (
                _has_cleanup_call(node.finalbody)
                or _has_stats_commit(node.finalbody)
                or bool(_store_lines(node.finalbody, fn, index, summaries))
            )
            for handler in node.handlers:
                terminal = _terminal_stmt(handler.body)
                if terminal is None:
                    continue  # falls through: a later path compensates
                if (
                    _has_cleanup_call(handler.body)
                    or _store_lines(handler.body, fn, index, summaries)
                    or _has_stats_commit(handler.body)
                    or finally_compensates
                ):
                    continue
                verb = "returns" if isinstance(terminal, ast.Return) else "raises"
                findings.append(
                    FlowFinding(
                        rule="exception-path-no-rollback",
                        path=fn.path,
                        line=handler.lineno,
                        message=(
                            f"handler in {fn.qualname}() {verb} at line "
                            f"{terminal.lineno} without rollback or stats "
                            f"commit for stores issued in the try body "
                            f"(first at line {stores[0]})"
                        ),
                        trace=[
                            TraceStep(
                                fn.path, stores[0], "protocol store under this try"
                            ),
                            TraceStep(fn.path, handler.lineno, "exception lands here"),
                            TraceStep(
                                fn.path,
                                terminal.lineno,
                                f"handler {verb} with the stores unaccounted",
                            ),
                        ],
                        extra_pragma_lines=(terminal.lineno,),
                    )
                )
    return findings


# -- single-file AST rules ---------------------------------------------------


def _has_prefix(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + "/") for p in prefixes)


def _is_device_receiver(chain: Sequence[str]) -> bool:
    # everything before the method name
    return any(part in DEVICE_RECEIVERS for part in chain[:-1])


def _unfenced_nt_stores(fn: ast.AST) -> Iterator[Tuple[str, int, str]]:
    """Every non-temporal store in *fn* when no fence/persist/drain is
    reachable in the same function (nested defs are functions of their
    own)."""
    nt_calls: List[Tuple[int, str]] = []
    for sub in _walk_no_defs(fn):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            chain = attr_chain(sub.func)
            if chain[-1] in _ORDERING_CALLS:
                return
            if chain[-1] in PENDING_STORES and _is_device_receiver(chain):
                nt_calls.append((sub.lineno, chain[-1]))
    for line, method in nt_calls:
        yield (
            "unfenced-nt-store",
            line,
            f"{method} in {fn.name}() with no fence/persist/drain "
            "reachable in the same function",
        )


def _locks_terminals_unsorted(loop: ast.For) -> bool:
    """A ``for`` over a ``terminals`` collection, not wrapped in
    ``sorted(...)``, whose body takes locks."""
    it = loop.iter
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "sorted":
        return False
    if not any(
        (isinstance(sub, ast.Attribute) and sub.attr == "terminals")
        or (isinstance(sub, ast.Name) and sub.id == "terminals")
        for sub in ast.walk(it)
    ):
        return False
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in ("lock", "acquire")
        for sub in ast.walk(loop)
    )


def _ambient_source(chain: Sequence[str], call: ast.Call) -> str:
    """What ambient clock/randomness ``base.fn(...)`` reads, or ``""``."""
    if len(chain) != 2:
        return ""
    base, fn = chain
    if base == "time" and fn in _TIME_FUNCS:
        return f"time.{fn}()"
    if base == "random" and fn in _RANDOM_FUNCS:
        return f"ambient random.{fn}()"
    if base == "random" and fn == "Random" and not call.args and not call.keywords:
        return "unseeded random.Random()"
    return ""


def _syntax_findings(tree: ast.AST, module: str) -> Iterator[Tuple[str, int, str]]:
    """``(rule, line, message)`` for one parsed file (all definitions,
    nested ones included)."""
    sanctioned = _has_prefix(module, SANCTIONED_STORE_PREFIXES)
    replayable = _has_prefix(module, REPLAYABLE_PREFIXES)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _unfenced_nt_stores(node)
        elif isinstance(node, ast.For) and _locks_terminals_unsorted(node):
            yield (
                "mgl-lock-order",
                node.lineno,
                "terminal locks acquired in plan order; wrap the "
                "iterable in sorted(..., key=lambda t: t[1])",
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = attr_chain(node.func)
            if not sanctioned and chain[-1] in _RAW_STORES and _is_device_receiver(chain):
                yield (
                    "raw-store-outside-protocol",
                    node.lineno,
                    f"{'.'.join(chain)}(...) in non-protocol module "
                    f"{module}; route writes through the fs layer",
                )
            ambient = _ambient_source(chain, node) if replayable else ""
            if ambient:
                yield ("ambient-nondeterminism", node.lineno, f"{ambient} in crash-replayable path")


def check_syntax_rules(index: ProgramIndex) -> List[FlowFinding]:
    """``raw-store-outside-protocol``, ``unfenced-nt-store``,
    ``mgl-lock-order`` and ``ambient-nondeterminism`` over every parsed
    tree."""
    return [
        FlowFinding(rule, path, line, message)
        for path, tree in index.trees.items()
        for rule, line, message in _syntax_findings(tree, index.modules[path])
    ]
