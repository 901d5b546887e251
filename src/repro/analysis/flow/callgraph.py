"""Whole-program function index, call resolution, and summary fixpoint.

The flow analyses are interprocedural: ``MgspFile.write`` is clean only
because ``_write_atomic`` fences on every normal path, and the MGL lock
graph has edges created by calls made while locks are held. This module
gives them:

- :class:`ProgramIndex` — every function/method definition across the
  analyzed files, with lazy per-function CFGs;
- receiver-aware call resolution: ``self.checkpoint()`` resolves inside
  the enclosing class; ``fs.metalog.write(...)`` resolves through an
  attribute->class map harvested from ``self.metalog = MetadataLog(...)``
  constructor assignments and annotated parameters; bare names fall back
  to an any-definition-of-that-name match;
- :func:`fixpoint` — iterate per-function summary computation until the
  summary table stabilizes (callee effects feed caller analyses, so
  summaries are mutually recursive; the lattice is small and iteration
  is capped defensively).

Resolution is deliberately heuristic — Python has no static types here.
The analyses consume candidate *sets* and combine them with the bias
appropriate to each rule (see their module docstrings).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.analysis.flow.cfg import Cfg, attr_chain, build_cfg

__all__ = ["FunctionInfo", "ProgramIndex", "module_path", "fixpoint"]

T = TypeVar("T")


def module_path(path: str) -> str:
    """The ``repro/...`` part of a file path (POSIX separators)."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    return "/".join(parts)


@dataclass
class FunctionInfo:
    path: str  # file path as given
    module: str  # repro/... module path (for scoping rules)
    qualname: str  # Class.method or function name
    name: str
    cls: Optional[str]
    node: ast.AST
    _cfg: Optional[Cfg] = field(default=None, repr=False)

    @property
    def cfg(self) -> Cfg:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    @property
    def line(self) -> int:
        return self.node.lineno


class ProgramIndex:
    """All definitions in the analyzed file set."""

    def __init__(self) -> None:
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        self.by_class: Dict[Tuple[str, str], FunctionInfo] = {}
        #: attribute / parameter name -> class names it may hold
        self.attr_classes: Dict[str, Set[str]] = {}
        self.class_names: Set[str] = set()
        self.trees: Dict[str, ast.AST] = {}
        self.modules: Dict[str, str] = {}  # path -> repro/... module path
        self.errors: List[Tuple[str, int, str]] = []  # (path, line, message)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, files: Dict[str, str], modules: Optional[Dict[str, str]] = None) -> "ProgramIndex":
        """Index ``{path: source}``; *modules* overrides the inferred
        repro-relative module path per file (corpus fixtures)."""
        index = cls()
        for path, text in files.items():
            try:
                tree = ast.parse(text, filename=path)
            except SyntaxError as exc:
                index.errors.append((path, exc.lineno or 0, str(exc)))
                continue
            index.trees[path] = tree
            module = (modules or {}).get(path) or module_path(path)
            index.modules[path] = module
            index._index_module(path, module, tree)
        index._harvest_attr_classes()
        return index

    def _index_module(self, path: str, module: str, tree: ast.AST) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add(path, module, node, None)
            elif isinstance(node, ast.ClassDef):
                self.class_names.add(node.name)
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add(path, module, sub, node.name)

    def _add(self, path: str, module: str, node: ast.AST, cls_name: Optional[str]) -> None:
        qual = f"{cls_name}.{node.name}" if cls_name else node.name
        info = FunctionInfo(path, module, qual, node.name, cls_name, node)
        self.functions.append(info)
        self.by_name.setdefault(node.name, []).append(info)
        if cls_name:
            self.by_class[(cls_name, node.name)] = info

    def _harvest_attr_classes(self) -> None:
        """``self.metalog = MetadataLog(...)`` and ``device: NvmDevice``
        annotations both teach the resolver what an attribute holds."""
        for fn in self.functions:
            params: Dict[str, str] = {}
            args = getattr(fn.node, "args", None)
            if args is not None:
                for arg in list(args.args) + list(args.kwonlyargs):
                    cls_name = _annotation_class(arg.annotation)
                    if cls_name:
                        params[arg.arg] = cls_name
                        self.attr_classes.setdefault(arg.arg, set()).add(cls_name)
            for node in ast.walk(fn.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                cls_name = None
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in self.class_names
                ):
                    cls_name = value.func.id
                elif isinstance(value, ast.Name) and value.id in params:
                    cls_name = params[value.id]
                elif isinstance(node, ast.AnnAssign):
                    cls_name = _annotation_class(node.annotation) or cls_name
                if cls_name is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        self.attr_classes.setdefault(target.attr, set()).add(cls_name)
                    elif isinstance(target, ast.Name):
                        self.attr_classes.setdefault(target.id, set()).add(cls_name)

    # -- resolution --------------------------------------------------------

    def resolve(self, call: ast.Call, caller: FunctionInfo) -> List[FunctionInfo]:
        """Candidate definitions for one call site (possibly empty)."""
        func = call.func
        if isinstance(func, ast.Name):
            return list(self.by_name.get(func.id, []))
        chain = attr_chain(func)
        if not chain:
            return []
        method = chain[-1]
        receiver = chain[-2] if len(chain) >= 2 else None
        if receiver == "self" and caller.cls:
            own = self.by_class.get((caller.cls, method))
            if own is not None:
                return [own]
        if receiver is not None:
            classes = self.attr_classes.get(receiver)
            if classes:
                hits = [
                    self.by_class[(c, method)]
                    for c in sorted(classes)
                    if (c, method) in self.by_class
                ]
                if hits:
                    return hits
        return list(self.by_name.get(method, []))


def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split(".")[-1].strip("'\"")
    return None


def fixpoint(
    functions: Sequence[FunctionInfo],
    compute: Callable[[FunctionInfo, Dict[str, T]], T],
    key: Callable[[FunctionInfo], str],
    max_rounds: int = 8,
) -> Dict[str, T]:
    """Iterate ``compute(fn, summaries)`` over all functions until the
    summary table stops changing (or *max_rounds*, defensively — the
    summary lattices are finite but ambiguous resolution can oscillate;
    the last table is then still a sound over/under-approximation in the
    direction each client chose)."""
    summaries: Dict[str, T] = {}
    for _ in range(max_rounds):
        changed = False
        for fn in functions:
            new = compute(fn, summaries)
            k = key(fn)
            if summaries.get(k) != new:
                summaries[k] = new
                changed = True
        if not changed:
            break
    return summaries
