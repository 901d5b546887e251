"""``# analysis: allow(rule) -- reason`` pragma machinery.

The static engine (:mod:`repro.analysis.flow`) honours one pragma
grammar for every rule it runs; the regex, the comment scanner and the
suppression bookkeeping live here.

A pragma suppresses findings of its rule on the pragma's own line or
the line directly below it (i.e. the probe order seen from a finding is
``(finding_line, finding_line - 1)``). A pragma without a ``-- reason``
never suppresses; the driver reports it as ``invalid-pragma``.

Staleness: a justified pragma that suppressed nothing is dead weight —
it either outlived the code it excused or was wrong to begin with — and
the driver reports it as ``stale-pragma``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

PRAGMA_RE = re.compile(r"#\s*analysis:\s*allow\(([a-z0-9-]+)\)(?:\s*--\s*(\S.*))?")


@dataclass(frozen=True)
class Pragma:
    """One pragma comment occurrence."""

    line: int
    rule: str
    reason: Optional[str]

    @property
    def valid(self) -> bool:
        return self.reason is not None


def scan_pragmas(text: str) -> List[Pragma]:
    """Every pragma *comment* in the source, in line order.

    Uses the tokenizer so pragma examples quoted inside docstrings or
    string literals are not mistaken for live pragmas (a raw line regex
    would flag a usage example in a module docstring as stale).
    """
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = PRAGMA_RE.search(tok.string)
            if m:
                pragmas.append(Pragma(tok.start[0], m.group(1), m.group(2)))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable source is reported as syntax-error by the caller;
        # fall back to a raw line scan so suppression still works.
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = PRAGMA_RE.search(line)
            if m:
                pragmas.append(Pragma(lineno, m.group(1), m.group(2)))
    return pragmas


class PragmaTable:
    """Suppression lookups + used/stale accounting for one source file."""

    def __init__(self, text: str) -> None:
        self.pragmas = scan_pragmas(text)
        self._by_line: Dict[int, Pragma] = {p.line: p for p in self.pragmas}
        self._used: Set[Pragma] = set()

    def lookup(self, finding_line: int, rule: str) -> Optional[Pragma]:
        """The pragma governing a finding at *finding_line*, if any."""
        for probe in (finding_line, finding_line - 1):
            pragma = self._by_line.get(probe)
            if pragma is not None and pragma.rule == rule:
                return pragma
        return None

    def mark_used(self, pragma: Pragma) -> None:
        self._used.add(pragma)

    def stale(self) -> List[Pragma]:
        """Justified pragmas that suppressed nothing in this file."""
        return [p for p in self.pragmas if p.valid and p not in self._used]
