"""The black-box flight recorder: a bounded ring of recent events.

Always-on observability for the failure detectors: a
:class:`FlightRecorder` keeps the *tail* of the run's history — device
persistence events (store/flush/fence), span open/close, lock
acquire/release, op boundaries, and explicit protocol-step markers —
in a fixed-capacity ring stamped with the virtual clock. When a check
fails, the ring is exactly the context a human needs: what the system
was doing in the moments before the crash point.

Design constraints, in order:

- **Determinism.** Timestamps come from the bound cost recorders'
  ``clock_ns`` (virtual time) only; recording reads state but never
  mutates clocks, device counters, or crash images. Two identical runs
  produce byte-identical ring snapshots, and a run with the recorder
  attached is byte-identical (crash images, ``DeviceStats``, verdicts)
  to the same run without it — the determinism gate in
  ``tests/test_obs_flight.py`` asserts both.
- **Index parity.** Device events consume indices exactly like
  :class:`repro.infer.events.EventCollector` and the crashsweep census:
  one index per store / clwb call / fence (per element inside the
  vectorized entry points), reset to zero by ``on_drain``. A ring
  entry's index therefore *is* a ``--at N`` crash index.
- **Detachment.** ``Telemetry.flight`` is ``None`` when no recorder is
  attached; hot paths that keep a ``flight`` reference pay one ``is
  None`` check when recording is off.

Ring entries are plain tuples, kind-tagged in slot 0:

========== ===========================================================
kind        payload
========== ===========================================================
store       ``(index, t_ns, offset, length, store_kind, op, spans)``
flush       ``(index, t_ns, offset, length, nlines, op, spans)``
fence       ``(index, t_ns, op, spans)``
span-open   ``(t_ns, name)``
span-close  ``(t_ns, name, dur_ns)``
lock        ``(t_ns, key, mode)``
unlock      ``(t_ns, key)``
op-begin    ``(t_ns, name, op_seq)``
op-end      ``(t_ns, name)``
mark        ``(t_ns, text)``
========== ===========================================================

``spans`` is the tuple of currently-open span names (innermost last)
at the moment of the device event — the "protocol step" forensics the
postmortem narrator leans on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import clock_reader, system_clocks


def _render_key(key) -> str:
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


class FlightRecorder:
    """Bounded, virtual-time-stamped event ring with crashsweep-parity
    device-event indices.

    ``capacity=0`` means unbounded (used by the postmortem replays that
    need the whole stream); any positive capacity bounds memory and
    keeps only the tail, counting evictions in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 256, regions=None) -> None:
        self.capacity = capacity
        self.regions = regions
        self._ring = deque() if capacity == 0 else deque(maxlen=capacity)
        self.recorded = 0
        #: crashsweep-parity device-event index (see module docstring)
        self.event_index = 0
        #: rendered lock key -> mode, in acquisition order
        self.held_locks: Dict[str, str] = {}
        #: open span names, innermost last; rebuilt when a span opens or
        #: closes, so a device event records it without copying
        self._spans: Tuple[str, ...] = ()
        self.op: Optional[str] = None
        self.op_seq = -1

    # -- binding / clock ----------------------------------------------------

    def bind(self, clocks: Sequence[object]) -> None:
        """Set the virtual-time source: recorders exposing ``clock_ns``."""
        self.now = clock_reader(clocks)

    def now(self) -> float:
        """Virtual time (:meth:`bind` installs the reader; 0 unbound)."""
        return 0.0

    # -- ring ---------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Entries the bounded ring has evicted."""
        return self.recorded - len(self._ring)

    def _append(self, entry: tuple) -> None:
        self._ring.append(entry)
        self.recorded += 1

    def events_list(self) -> List[tuple]:
        return list(self._ring)

    # -- device tap (index parity with EventCollector) ----------------------

    def on_store(self, offset: int, length: int, kind: str) -> None:
        idx = self.event_index
        self.event_index = idx + 1
        self._ring.append(
            ("store", idx, self.now(), offset, length, kind, self.op, self._spans))
        self.recorded += 1

    def on_flush(self, offset: int, length: int, nlines: int) -> None:
        idx = self.event_index
        self.event_index = idx + 1
        self._ring.append(
            ("flush", idx, self.now(), offset, length, nlines, self.op, self._spans))
        self.recorded += 1

    def on_fence(self) -> None:
        idx = self.event_index
        self.event_index = idx + 1
        self._ring.append(("fence", idx, self.now(), self.op, self._spans))
        self.recorded += 1

    def on_drain(self) -> None:
        """Setup boundary: pre-history is discarded and indices restart,
        exactly like the collector and the census baseline."""
        self._ring.clear()
        self.recorded = 0
        self.event_index = 0

    # -- recorder listener hooks (ops + locks) ------------------------------

    def on_op_begin(self, name: str) -> None:
        self.op_seq += 1
        self.op = name
        self._append(("op-begin", self.now(), name, self.op_seq))

    def on_op_end(self, name: str) -> None:
        self._append(("op-end", self.now(), name))
        self.op = None

    def on_lock(self, key, mode) -> None:
        rendered = _render_key(key)
        self.held_locks[rendered] = str(mode)
        self._append(("lock", self.now(), rendered, str(mode)))

    def on_unlock(self, key) -> None:
        rendered = _render_key(key)
        self.held_locks.pop(rendered, None)
        self._append(("unlock", self.now(), rendered))

    # -- telemetry span hooks -----------------------------------------------

    def on_span_open(self, name: str, t_ns: float) -> None:
        self._spans += (name,)
        self._ring.append(("span-open", t_ns, name))
        self.recorded += 1

    def on_span_close(self, name: str, t_ns: float, dur_ns: float) -> None:
        spans = self._spans
        if spans and spans[-1] == name:
            self._spans = spans[:-1]
        else:
            # Self-healing parity with Telemetry.span_end: frames
            # abandoned by an exception unwind never see a close, so pop
            # through them.
            depth = len(spans)
            while depth and spans[depth - 1] != name:
                depth -= 1
            self._spans = spans[:max(depth - 1, 0)]
        self._ring.append(("span-close", t_ns, name, dur_ns))
        self.recorded += 1

    # -- protocol-step markers ----------------------------------------------

    def mark(self, text: str) -> None:
        """Record an explicit protocol-step marker."""
        self._append(("mark", self.now(), text))

    # -- export -------------------------------------------------------------

    def held_locks_snapshot(self) -> List[List[str]]:
        return [[key, mode] for key, mode in self.held_locks.items()]

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of the ring (tuples become lists)."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": [list(entry) for entry in self._ring],
        }


def attach_flight(system, capacity: int = 256, telemetry=None, regions=None) -> FlightRecorder:
    """Attach a flight recorder to a workload system (a mounted file
    system or a crashsweep ``RawSystem``).

    Joins the device's observer list as a tap and the foreground
    recorder's listeners for op/lock events, and — when telemetry is
    live — hooks span open/close through ``Telemetry.flight``. Telemetry
    attached afterwards finds the recorder on the device, so either
    order works.
    """
    flight = FlightRecorder(capacity=capacity, regions=regions)
    flight.bind(system_clocks(system))
    system.device.attach(flight)
    system.recorder.attach(flight)
    tel = telemetry if telemetry is not None else getattr(system, "obs", None)
    if tel is not None and getattr(tel, "enabled", False):
        tel.flight = flight
    return flight
