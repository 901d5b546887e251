"""The black-box flight recorder: the indexed persistence-event stream.

A :class:`FlightRecorder` is *the* tap on the device's observer list:
it stamps every store / clwb call / fence with its crash index, the
virtual clock, the open op and the open spans, and keeps the tail of
that history — with span open/close, lock acquire/release, op
boundaries and explicit protocol-step markers — in a fixed-capacity
ring. When a check fails, the ring is the context a human needs; and
everything else that wants persistence events (the trace analyzer,
the ``repro.infer`` miner, the post-mortem) is a *fold* over its
entries — live, through :meth:`FlightRecorder.follow`, or offline over
a saved ``events_list()`` / a bundle's ``flight.events``.

Design constraints, in order:

- **Determinism.** Timestamps come from the bound cost recorders'
  ``clock_ns`` (virtual time) only; recording reads state but never
  mutates clocks, device counters, or crash images. Two identical runs
  produce byte-identical ring snapshots, and a run with the recorder
  attached is byte-identical (crash images, ``DeviceStats``, verdicts)
  to the same run without it — the determinism gate in
  ``tests/test_obs_flight.py`` asserts both.
- **Index parity.** Device events consume indices exactly like the
  ``CrashPlan`` gate and ``count_events(DeviceStats)``: one index per
  store / clwb call / fence (per element inside the vectorized entry
  points), reset to zero by ``on_drain``. A ring entry's index
  therefore *is* a ``--at N`` crash index; the gate counts, the
  recorder stamps, every fold reads.
- **Live == saved.** A followed recorder hands each entry to its folds
  as it is recorded (a bounded ring's followers lose nothing), plus a
  never-stored ``("drain",)`` marker where the ring is cleared and
  indices restart — so after it a live fold has seen exactly the
  unbounded ``events_list()``. Offline, a fold is sound only over a
  ring with ``dropped == 0``.
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

``spans`` is Telemetry's span path (open span names, innermost last)
at the moment of the device event — the "protocol step" forensics the
postmortem narrator leans on. The recorder keeps no span stack of its
own: ``Telemetry.span_begin`` / ``span_end`` hand it the path after
each open and after each (self-healed) close. :func:`device_event` is
the one reader of the three device rows' positions.

:class:`WordDurability` is the one word-granular replay of the x86+ADR
durability lattice that the offline folds share: the ``repro.infer``
miner drives it over its events, the post-mortem over device rows. A
clwb moves every dirty word of each 64 B line it touches, as the
device's store buffer does.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import clock_reader, system_clocks
from repro.util import CACHE_LINE


def render_key(key) -> str:
    """A lock key as text: tuple parts joined with ``/``."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def device_event(entry) -> Optional[tuple]:
    """``(kind, index, offset, length, aux, op, spans)`` of a store /
    flush / fence row — a ring tuple or a bundle's list — else ``None``.
    *aux* is the store kind of a store and ``nlines`` of a flush; a
    fence has no range (``0, 0, ""``)."""
    kind = entry[0]
    if kind == "store" or kind == "flush":
        return kind, entry[1], entry[3], entry[4], entry[5], entry[6], entry[7]
    if kind == "fence":
        return kind, entry[1], 0, 0, "", entry[3], entry[4]
    return None


def words_of(offset: int, length: int) -> List[int]:
    """8-byte word offsets covering ``[offset, offset+length)``."""
    start = offset & ~7
    end = (offset + length + 7) & ~7
    return list(range(start, end, 8))


class WordDurability:
    """Word-granular replay of the x86+ADR durability lattice.

    Cached stores (``store``/``atomic``) are ``dirty`` until a clwb
    covers their line, ``pending`` until fenced. Non-temporal stores
    skip the cache: they are ``pending`` immediately (the next fence
    alone drains them). Durable words leave :attr:`state`.
    """

    def __init__(self) -> None:
        self.state: Dict[int, str] = {}  # word -> "dirty"|"pending"

    def store(self, offset: int, length: int, kind: str) -> None:
        level = "pending" if kind == "nt" else "dirty"
        for w in words_of(offset, length):
            self.state[w] = level

    def flush(self, offset: int, length: int) -> List[int]:
        """clwb every line of the range; returns the words moved dirty →
        pending."""
        state = self.state
        start = offset & -CACHE_LINE
        end = (offset + length + CACHE_LINE - 1) & -CACHE_LINE
        moved = [w for w in range(start, end, 8) if state.get(w) == "dirty"]
        for w in moved:
            state[w] = "pending"
        return moved

    def fence(self) -> List[int]:
        """sfence; returns the words it made durable."""
        state = self.state
        made = [w for w, level in state.items() if level == "pending"]
        for w in made:
            del state[w]
        return made


class FlightRecorder:
    """Bounded, virtual-time-stamped event ring with crashsweep-parity
    device-event indices.

    ``capacity=0`` means unbounded (used by the replays that need the
    whole stream); any positive capacity bounds memory and keeps only
    the tail, counting evictions in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._ring = deque() if capacity == 0 else deque(maxlen=capacity)
        self.recorded = 0
        #: crashsweep-parity device-event index (see module docstring)
        self.event_index = 0
        #: rendered lock key -> mode, in acquisition order
        self.held_locks: Dict[str, str] = {}
        #: open span names, innermost last: the path Telemetry hands over
        #: at each span open / close, so a device event records it as is
        self._spans: Tuple[str, ...] = ()
        self.op: Optional[str] = None
        self.op_seq = -1
        self._folds: tuple = ()

    # -- binding / clock ----------------------------------------------------

    def bind(self, clocks: Sequence[object]) -> None:
        """Set the virtual-time source: recorders exposing ``clock_ns``."""
        self.now = clock_reader(clocks)

    def now(self) -> float:
        """Virtual time (:meth:`bind` installs the reader; 0 unbound)."""
        return 0.0

    # -- ring and its followers ---------------------------------------------

    @property
    def dropped(self) -> int:
        """Entries the bounded ring has evicted."""
        return self.recorded - len(self._ring)

    def follow(self, fold):
        """Call ``fold(entry)`` with every entry from now on, as it is
        recorded, and with ``("drain",)`` at each drain; returns *fold*."""
        self._folds += (fold,)
        return fold

    def _feed(self, entry: tuple) -> None:
        for fold in self._folds:
            fold(entry)

    def _append(self, entry: tuple) -> None:
        self._ring.append(entry)
        self.recorded += 1
        if self._folds:
            self._feed(entry)

    def events_list(self) -> List[tuple]:
        return list(self._ring)

    # -- device tap (the hooks are _append, inlined: the hot path) ----------

    def on_store(self, offset: int, length: int, kind: str) -> None:
        idx = self.event_index
        self.event_index = idx + 1
        entry = ("store", idx, self.now(), offset, length, kind, self.op, self._spans)
        self._ring.append(entry)
        self.recorded += 1
        if self._folds:
            self._feed(entry)

    def on_flush(self, offset: int, length: int, nlines: int) -> None:
        idx = self.event_index
        self.event_index = idx + 1
        entry = ("flush", idx, self.now(), offset, length, nlines, self.op, self._spans)
        self._ring.append(entry)
        self.recorded += 1
        if self._folds:
            self._feed(entry)

    def on_fence(self) -> None:
        idx = self.event_index
        self.event_index = idx + 1
        entry = ("fence", idx, self.now(), self.op, self._spans)
        self._ring.append(entry)
        self.recorded += 1
        if self._folds:
            self._feed(entry)

    def on_drain(self) -> None:
        """Setup boundary: pre-history is discarded and indices restart,
        exactly like the census baseline; folds are told to do the same."""
        self._ring.clear()
        self.recorded = 0
        self.event_index = 0
        self._feed(("drain",))

    # -- recorder listener hooks (ops + locks) ------------------------------

    def on_op_begin(self, name: str) -> None:
        self.op_seq += 1
        self.op = name
        self._append(("op-begin", self.now(), name, self.op_seq))

    def on_op_end(self, name: str) -> None:
        self._append(("op-end", self.now(), name))
        self.op = None

    def on_lock(self, key, mode) -> None:
        rendered = render_key(key)
        self.held_locks[rendered] = str(mode)
        self._append(("lock", self.now(), rendered, str(mode)))

    def on_unlock(self, key) -> None:
        rendered = render_key(key)
        self.held_locks.pop(rendered, None)
        self._append(("unlock", self.now(), rendered))

    # -- telemetry span hooks -----------------------------------------------

    def on_span_open(self, name: str, t_ns: float, path: Tuple[str, ...]) -> None:
        self._spans = path
        entry = ("span-open", t_ns, name)
        self._ring.append(entry)
        self.recorded += 1
        if self._folds:
            self._feed(entry)

    def on_span_close(self, name: str, t_ns: float, dur_ns: float,
                      path: Tuple[str, ...]) -> None:
        self._spans = path
        entry = ("span-close", t_ns, name, dur_ns)
        self._ring.append(entry)
        self.recorded += 1
        if self._folds:
            self._feed(entry)

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


def attach_flight(system, capacity: int = 256, telemetry=None) -> FlightRecorder:
    """Attach a flight recorder to a workload system (a mounted file
    system or a crashsweep ``RawSystem``).

    Joins the device's observer list as a tap and the foreground
    recorder's listeners for op/lock events, and — when telemetry is
    live — hooks span open/close through ``Telemetry.flight``. Telemetry
    attached afterwards finds the recorder on the device, so either
    order works.
    """
    flight = FlightRecorder(capacity=capacity)
    flight.bind(system_clocks(system))
    system.device.attach(flight)
    system.recorder.attach(flight)
    tel = telemetry if telemetry is not None else getattr(system, "obs", None)
    if tel is not None and getattr(tel, "enabled", False):
        tel.flight = flight
    return flight
