"""Persistence-order trace analyzer (the dynamic half of ``repro.analysis``).

WITCHER-style: instead of *executing* crash states like the PR-3 sweep,
the analyzer is a fold over the flight recorder's entries
(:mod:`repro.obs.flight`) and checks the MGSP ordering protocol as an
invariant over that stream — live, as ``flight.follow(analyzer)``, or
offline, called on each entry of a saved ``events_list()`` / a bundle's
``flight.events`` (sound only over a ring with ``dropped == 0``: an
evicted flush makes the next fence look redundant). Event indices are
read from the entries, which the recorder stamps exactly like the crash
sweep's enumeration, so every finding can name the ``--at`` index a
``repro.crashsweep`` reproducer would crash at.

Rules
-----
``commit-before-data`` (error)
    A fence is about to make a metadata-log commit entry durable while
    data the entry guards is still volatile: some non-metalog line is
    dirty, or pending from a store *older* than the commit store (i.e.
    the data fence that should precede the commit point is missing — a
    crash could persist the checksummed commit entry via eviction while
    the guarded bytes are lost).
``torn-multiword`` (error)
    Multi-word metadata (node tables, metalog) written with a plain
    cached store instead of ``atomic_store_u64`` / a non-temporal +
    fence sequence: words of the update can persist independently.
``unfenced-at-boundary`` (error)
    Dirty (stored-but-unflushed) lines alive when an operation returns,
    outside the async write-back config. The metadata-log region is
    exempt: MGSP's entry retire is deliberately unfenced (replay is
    idempotent) and leaves exactly one dirty metalog line per op.
``redundant-flush`` (perf)
    A clwb call that covered only clean lines.
``redundant-fence`` (perf)
    A fence issued with nothing pending. Note MGSP's ``fsync`` is *by
    design* such a fence (every write is already synchronized), so
    workload reports treat perf findings as diagnostics, not failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.fsapi.layout import VolumeLayout
from repro.obs.flight import device_event
from repro.util import CACHE_LINE

ERROR = "error"
PERF = "perf"

#: rule id -> (severity, one-line description)
RULES: Dict[str, Tuple[str, str]] = {
    "commit-before-data": (
        ERROR,
        "commit/metalog entry becomes durable while guarded data is volatile",
    ),
    "torn-multiword": (
        ERROR,
        "multi-word metadata written with a plain (tearable) cached store",
    ),
    "unfenced-at-boundary": (
        ERROR,
        "dirty lines alive across an op boundary outside async write-back",
    ),
    "redundant-flush": (PERF, "clwb call that covered only clean lines"),
    "redundant-fence": (PERF, "fence issued with nothing pending"),
}

#: regions where multi-word metadata must use atomic / fenced stores
_TORN_REGIONS = frozenset({"node_tables", "metalog"})


@dataclass
class Finding:
    """One rule violation, anchored to a persistence-event index."""

    rule: str
    severity: str
    event_index: int  # 0-based: ``--at event_index`` crashes just before it
    message: str
    op: Optional[str] = None  # op open when the event fired, if any

    def format(self, reproducer: Optional[str] = None) -> str:
        where = f" [op={self.op}]" if self.op else ""
        line = f"{self.severity.upper():5s} {self.rule} @ event {self.event_index}{where}: {self.message}"
        if reproducer:
            line += f"\n      reproduce: {reproducer}"
        return line


class RegionMap:
    """Classify device offsets into volume-layout regions."""

    #: layout attributes, in device order
    NAMES = ("superblock", "metalog", "node_tables", "journal", "log_area", "data_area")

    def __init__(self, layout: VolumeLayout) -> None:
        self.layout = layout
        self._spans = [
            (getattr(layout, name).start, getattr(layout, name).end, name)
            for name in self.NAMES
        ]

    @classmethod
    def from_layout(cls, layout: VolumeLayout) -> "RegionMap":
        return cls(layout)

    @classmethod
    def for_device(cls, device_size: int, **kwargs) -> "RegionMap":
        return cls(VolumeLayout.for_device(device_size, **kwargs))

    def classify(self, offset: int) -> str:
        for start, end, name in self._spans:
            if start <= offset < end:
                return name
        return "unmapped"


# line-state slots (lists, mutated in place): [state, store_idx, is_commit]
_DIRTY = 0  # stored, not flushed
_PENDING = 1  # flushed (or nt-stored), not fenced


class TraceAnalyzer:
    """A fold over flight-recorder entries: mirrors line state at
    cache-line granularity and checks the ordering rules online.

    Follow a recorder with :func:`repro.analysis.harness.attach_analyzer`
    (``attach_flight(fs).follow(analyzer)``) or call it on saved entries.
    The recorder's ``("drain",)`` marker resets line state and the event
    index — aligned with the sweep's drain-then-arm sequence, so
    reported indices match ``--at`` reproducer indices.
    """

    def __init__(
        self,
        regions: RegionMap,
        device=None,
        async_writeback: bool = False,
        perf: bool = True,
        max_events: Optional[int] = None,
    ) -> None:
        self.regions = regions
        self.device = device
        self.async_writeback = async_writeback
        self.perf = perf
        self.max_events = max_events
        self.findings: List[Finding] = []
        self.event_index = 0  # one past the last device entry's index
        self.saturated = False  # hit max_events; stopped analyzing
        self._lines: Dict[int, list] = {}  # line -> [state, store_idx, commit]
        self._boundary_reported: Set[int] = set()

    # -- bookkeeping -------------------------------------------------------

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def _crashed(self) -> bool:
        observers = getattr(self.device, "observers", ())
        return any(getattr(observer, "fired", False) for observer in observers)

    def _report(self, rule: str, idx: int, message: str, op: Optional[str]) -> None:
        severity = RULES[rule][0]
        if severity == PERF and not self.perf:
            return
        self.findings.append(
            Finding(rule=rule, severity=severity, event_index=idx, message=message, op=op)
        )

    # -- the fold ----------------------------------------------------------

    def __call__(self, entry) -> None:
        event = device_event(entry)
        if event is None:
            if entry[0] == "op-end":
                self._check_boundary(entry[2])
            elif entry[0] == "drain":
                self._lines.clear()
                self._boundary_reported.clear()
                self.event_index = 0
                self.saturated = False
            return
        kind, idx, offset, length, aux, op, _spans = event
        self.event_index = idx + 1
        if self.max_events is not None and idx >= self.max_events:
            if not self.saturated:  # past the analysis budget
                self.saturated = True
                self._lines.clear()
        elif kind == "store":
            self._store(idx, offset, length, aux, op)
        elif kind == "flush":
            self._flush(idx, offset, length, aux, op)
        else:
            self._fence(idx, op)

    def _store(self, idx: int, offset: int, length: int, kind: str, op) -> None:
        region = self.regions.classify(offset)
        if kind == "store" and length > 8 and region in _TORN_REGIONS:
            self._report(
                "torn-multiword",
                idx,
                f"plain {length}-byte store at offset {offset} in {region}; "
                "words may persist independently — use atomic_store_u64 or "
                "an nt_store + fence sequence",
                op,
            )
        state = _PENDING if kind == "nt" else _DIRTY
        is_commit = region == "metalog" and length > 8
        lines = self._lines
        for line in range(offset // CACHE_LINE, (offset + length - 1) // CACHE_LINE + 1):
            lines[line] = [state, idx, is_commit]

    def _flush(self, idx: int, offset: int, length: int, nlines: int, op) -> None:
        if nlines == 0:
            self._report(
                "redundant-flush",
                idx,
                f"clwb of [{offset}, {offset + length}) covered no dirty line",
                op,
            )
        lines = self._lines
        for line in range(offset // CACHE_LINE, (offset + length - 1) // CACHE_LINE + 1):
            st = lines.get(line)
            if st is not None and st[0] == _DIRTY:
                st[0] = _PENDING

    def _fence(self, idx: int, op) -> None:
        lines = self._lines
        pending = [(line, st) for line, st in lines.items() if st[0] == _PENDING]
        if not pending:
            self._report("redundant-fence", idx, "fence with nothing pending", op)
        commits = [(line, st) for line, st in pending if st[2]]
        if commits:
            commit_idx = min(st[1] for _, st in commits)
            offenders = []
            for line, st in lines.items():
                if st[2] or self.regions.classify(line * CACHE_LINE) == "metalog":
                    continue
                if st[0] == _DIRTY or st[1] < commit_idx:
                    offenders.append((line, st))
            if offenders:
                worst = min(off_st[1] for _, off_st in offenders)
                dirty_n = sum(1 for _, st in offenders if st[0] == _DIRTY)
                self._report(
                    "commit-before-data",
                    idx,
                    f"fence makes commit entry (store event {commit_idx}) durable "
                    f"while {len(offenders)} guarded line(s) are volatile "
                    f"({dirty_n} dirty; earliest guarded store at event {worst}) — "
                    "the data fence before the commit point is missing",
                    op,
                )
        for line, _ in pending:
            del lines[line]

    def _check_boundary(self, name: str) -> None:
        """An ``op-end`` entry; findings anchor to the op that just ended."""
        if self.async_writeback or self.saturated or self._crashed():
            return
        classify = self.regions.classify
        fresh = [
            line
            for line, st in self._lines.items()
            if st[0] == _DIRTY
            and line not in self._boundary_reported
            and classify(line * CACHE_LINE) != "metalog"
        ]
        if fresh:
            self._boundary_reported.update(fresh)
            offsets = sorted(line * CACHE_LINE for line in fresh)
            shown = ", ".join(str(o) for o in offsets[:4])
            more = f" (+{len(offsets) - 4} more)" if len(offsets) > 4 else ""
            self._report(
                "unfenced-at-boundary",
                self.event_index,
                f"op {name!r} returned with {len(fresh)} dirty line(s) at "
                f"offset(s) {shown}{more} and async write-back is off",
                name,
            )
