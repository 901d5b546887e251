"""Persistence-event collection for invariant inference.

The collector is a tap on the same device observer list the
:class:`repro.analysis.analyzer.TraceAnalyzer` attaches to, with
the same event indexing discipline: every ``on_store`` / ``on_flush`` /
``on_fence`` callback consumes exactly one index, and ``on_drain``
resets the counter to zero. Because crashsweep's census counts the same
three event kinds from the same ``stats_base`` (taken right after the
post-setup drain), a collected event's ``index`` *is* the crashsweep
``crash_after`` index — the falsifier can hand it straight to
``CrashPlan`` and hit the corresponding moment exactly.

Unlike the analyzer (which checks rules online and forgets), the
collector keeps the whole event list, tagged with the region each
offset falls in and the operation it happened under, so the miner can
replay durability offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


#: event kinds, matching the census accounting exactly
STORE = "store"
FLUSH = "flush"
FENCE = "fence"


@dataclass(frozen=True)
class PersistEvent:
    """One indexed persistence event.

    ``index`` is crashsweep-parity: ``CrashPlan(crash_after=index)``
    fires on this event (events ``0..index-1`` completed before it).
    """

    index: int
    kind: str  # STORE | FLUSH | FENCE
    offset: int
    length: int
    store_kind: str  # "store" | "nt" | "atomic" | "" (flush/fence)
    region: str
    op: Optional[str]  # op kind, None outside any op bracket
    op_seq: int  # 0-based completed-op counter; -1 before the first op


@dataclass
class Trace:
    """One passing run's event stream."""

    workload: str
    config_name: str
    events: List[PersistEvent]
    ops: int
    saturated: bool


class EventCollector:
    """Device tap + recorder listener: records every
    persistence event with region/op context."""

    def __init__(self, regions=None, max_events: Optional[int] = None) -> None:
        self.regions = regions
        self.max_events = max_events
        self.events: List[PersistEvent] = []
        self.event_index = 0
        self.saturated = False
        self.op: Optional[str] = None
        self.op_seq = -1

    # -- indexing (mirrors TraceAnalyzer._next_index) ----------------------

    def _next_index(self) -> Optional[int]:
        idx = self.event_index
        self.event_index += 1
        if self.max_events is not None and idx >= self.max_events:
            self.saturated = True
            return None
        return idx

    def _region(self, offset: int) -> str:
        if self.regions is None:
            return "device"
        return self.regions.classify(offset)

    # -- device tap ---------------------------------------------------------

    def on_store(self, offset: int, length: int, kind: str) -> None:
        idx = self._next_index()
        if idx is None:
            return
        self.events.append(
            PersistEvent(idx, STORE, offset, length, kind, self._region(offset), self.op, self.op_seq)
        )

    def on_flush(self, offset: int, length: int, nlines: int) -> None:
        idx = self._next_index()
        if idx is None:
            return
        self.events.append(
            PersistEvent(idx, FLUSH, offset, length, "", self._region(offset), self.op, self.op_seq)
        )

    def on_fence(self) -> None:
        idx = self._next_index()
        if idx is None:
            return
        self.events.append(PersistEvent(idx, FENCE, 0, 0, "", "", self.op, self.op_seq))

    def on_drain(self) -> None:
        """Setup boundary: everything before the drain is pre-history
        (crashsweep's census starts counting here too)."""
        self.events.clear()
        self.event_index = 0
        self.saturated = False

    # -- recorder listener op hooks ----------------------------------------

    def on_op_begin(self, name: str) -> None:
        self.op_seq += 1
        self.op = name

    def on_op_end(self, name: str) -> None:
        self.op = None


def attach_collector(system, regions=None, max_events: Optional[int] = None) -> EventCollector:
    """Instrument a workload system (file system or ``RawSystem``) with a
    collector; pass as ``SweepWorkload.run(..., instrument=...)`` body.

    Same shape as ``repro.analysis.harness.attach_analyzer``: the tap
    observes device-level events, the recorder's listener seam feeds
    op boundaries.
    """
    collector = EventCollector(regions=regions, max_events=max_events)
    system.device.attach(collector)
    system.recorder.attach(collector)
    return collector
