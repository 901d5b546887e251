"""Persistence events for invariant inference.

:func:`from_flight` is a fold over flight-recorder entries
(:mod:`repro.obs.flight`): the recorder is the one tap that stamps each
store / clwb call / fence with its crash index and open op, and because
crashsweep's census counts the same three event kinds from the same
``stats_base`` (taken right after the post-setup drain), an event's
``index`` *is* the crashsweep ``crash_after`` index — the falsifier can
hand it straight to ``CrashPlan`` and hit the corresponding moment
exactly.

Unlike the analyzer (which checks rules as it folds and forgets), this
keeps the whole device-event list, tagged with the region each offset
falls in and the operation it happened under, so the miner can replay
durability offline. Sound only over a ring that dropped nothing
(``capacity=0``, or a bundle whose ``flight.dropped == 0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.flight import device_event

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


def from_flight(entries, regions, max_events: Optional[int] = None) -> List[PersistEvent]:
    """The device events among a ring's *entries* (``events_list()`` or
    a bundle's ``flight.events``) with index below *max_events*, each
    with its region and the ``op_seq`` of the last ``op-begin`` before it."""
    events: List[PersistEvent] = []
    op_seq = -1
    for entry in entries:
        event = device_event(entry)
        if event is None:
            if entry[0] == "op-begin":
                op_seq = entry[3]
            continue
        kind, index, offset, length, aux, op, _spans = event
        if max_events is not None and index >= max_events:
            break
        store_kind = aux if kind == STORE else ""
        region = "" if kind == FENCE else regions.classify(offset)
        events.append(PersistEvent(index, kind, offset, length, store_kind, region, op, op_seq))
    return events
