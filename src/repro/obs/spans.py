"""Virtual-time spans: per-layer attribution on the simulated clock.

A span brackets a region of protocol code (``mgl.acquire``,
``write.data``, ``checkpoint.writeback``, ...) and measures two meters
across it:

- **virtual nanoseconds** — the cost recorders' accumulated clock
  (:attr:`repro.sim.trace.TraceRecorder.clock_ns`), i.e. exactly the
  time the replay/throughput math charges; and
- **device bytes** — ``DeviceStats.stored_bytes``, so every persisted
  byte is attributed to the layer that issued it.

Spans nest; a span's *self* time/bytes are its inclusive delta minus
whatever nested spans claimed, so summing self values over all spans
(plus the unattributed remainder) reconstructs the run's total exactly
— the conservation property the attribution views and tests rely on.

Instrumented hot paths pay **one attribute check** when observability
is off: every file system carries ``fs.obs`` which defaults to the
shared :data:`NULL_SINK` (``enabled = False``); code guards with
``if obs.enabled:`` and never constructs frames or reads clocks in the
disabled case. Everything here runs on the virtual clock only — no
wall time, no ambient randomness — so telemetry is deterministic and
crash-replay safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs.registry import Counter, Histogram, MetricsRegistry


def clock_reader(clocks: Sequence[object]) -> Callable[[], float]:
    """``now()`` over recorders exposing ``clock_ns``: total virtual work
    priced so far across the streams. One and two streams (foreground,
    foreground + background) read the attributes directly; the sums are
    the same floats ``sum()`` produces."""
    if len(clocks) == 1:
        (only,) = clocks
        return lambda: only.clock_ns
    if len(clocks) == 2:
        first, second = clocks
        return lambda: first.clock_ns + second.clock_ns
    clocks = tuple(clocks)
    return lambda: sum(clock.clock_ns for clock in clocks)


def system_clocks(system) -> List[object]:
    """The cost recorders of a workload system (foreground, plus
    ``bg_recorder`` where one exists)."""
    recorders = (system.recorder, getattr(system, "bg_recorder", None))
    return [recorder for recorder in recorders if recorder is not None]


class NullSink:
    """Disabled telemetry: one attribute check, nothing else.

    Instrumentation guards with ``if obs.enabled:``; the no-op methods
    below exist only as a safety net for unguarded (cold-path) calls.
    """

    enabled = False
    registry: Optional[MetricsRegistry] = None

    def now(self) -> float:
        return 0.0

    def span_begin(self, name: str):
        return None

    def span_end(self, frame) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield

    def lock_wait(self, key: Hashable, ns: float) -> None:
        pass


#: the shared disabled sink — the default value of ``FileSystem.obs``
NULL_SINK = NullSink()


class _Frame:
    """One open span on the stack (identity is the close token). *path*
    is the tuple of open span names through this one, outermost first."""

    __slots__ = ("name", "start_ns", "start_bytes", "child_ns", "child_bytes", "path")

    def __init__(self, name: str, start_ns: float, start_bytes: int,
                 path: Tuple[str, ...]) -> None:
        self.name = name
        self.start_ns = start_ns
        self.start_bytes = start_bytes
        self.child_ns = 0.0
        self.child_bytes = 0
        self.path = path


class SpanStats:
    """Aggregated measurements for one span name, and its registry
    instruments. A registry may be shared by several sinks, so ``count``
    and ``total_ns`` are kept here, not read back from ``hist``."""

    __slots__ = ("count", "self_ns", "self_bytes", "total_ns", "total_bytes",
                 "calls", "hist")

    def __init__(self, calls: Counter, hist: Histogram) -> None:
        self.count = 0
        self.self_ns = 0.0
        self.self_bytes = 0
        self.total_ns = 0.0
        self.total_bytes = 0
        self.calls = calls
        self.hist = hist


#: the byte meter of a sink bound to no device: nothing is ever stored
_NO_DEVICE = SimpleNamespace(stored_bytes=0)


class Telemetry:
    """The live sink: span accounting + a metrics registry.

    Bind it to a mounted file system with :func:`attach_telemetry`
    (captures the cost recorders' clocks and the device's byte counter
    as the two meters). The simulation executes functionally on one OS
    thread, so a single span stack is exact even for multi-threaded
    *simulated* runs — simulated-thread contention shows up through
    :meth:`lock_wait`, fed by the replay engine.
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: the byte meter: the bound device's ``DeviceStats``
        self._stats = _NO_DEVICE
        self._stack: List[_Frame] = []
        #: span name -> its aggregates, created at the first close of that name
        self.spans: Dict[str, SpanStats] = {}
        #: lock key -> [blocked acquires, total wait ns] (replay engine)
        self.lock_waits: Dict[Hashable, List[float]] = {}
        self._lock_wait_meters: Optional[tuple] = None
        self._clock0 = 0.0
        self._bytes0 = 0
        self._root_ns = 0.0
        self._root_bytes = 0
        #: optional :class:`repro.obs.flight.FlightRecorder` fed span
        #: open/close events (set by ``attach_flight``/``attach_telemetry``,
        #: whichever runs second; None when no recorder is attached — one
        #: attribute check on the span path)
        self.flight = None

    # -- binding -----------------------------------------------------------

    def bind(self, clocks: Sequence[object], device=None) -> None:
        """Set the meters: *clocks* are recorders exposing ``clock_ns``
        (foreground + any background stream), *device* supplies
        ``stats.stored_bytes``. Zeroes the baselines at the bind point."""
        self.now = clock_reader(clocks)
        self._stats = device.stats if device is not None else _NO_DEVICE
        self._clock0 = self.now()
        self._bytes0 = self.stored_bytes()

    # -- meters ------------------------------------------------------------

    def now(self) -> float:
        """Total virtual work priced so far, across all bound streams
        (:meth:`bind` installs the reader; unbound, nothing is priced)."""
        return 0.0

    def stored_bytes(self) -> int:
        return self._stats.stored_bytes

    def total_ns(self) -> float:
        """Virtual nanoseconds elapsed since :meth:`bind`."""
        return self.now() - self._clock0

    def total_bytes(self) -> int:
        """Device bytes stored since :meth:`bind`."""
        return self.stored_bytes() - self._bytes0

    def attributed_ns(self) -> float:
        """Inclusive time claimed by top-level spans (≤ total_ns)."""
        return self._root_ns

    def attributed_bytes(self) -> int:
        return self._root_bytes

    # -- spans -------------------------------------------------------------

    def span_begin(self, name: str) -> _Frame:
        stack = self._stack
        path = stack[-1].path + (name,) if stack else (name,)
        frame = _Frame(name, self.now(), self._stats.stored_bytes, path)
        stack.append(frame)
        if self.flight is not None:
            self.flight.on_span_open(name, frame.start_ns, path)
        return frame

    def span_end(self, frame: _Frame) -> None:
        """Close *frame*. Self-healing: frames opened after *frame* and
        never closed (an exception unwound past their span_end) are
        discarded — their time folds into *frame*'s self time. The
        flight recorder is handed the surviving path."""
        stack = self._stack
        if stack and stack[-1] is frame:
            del stack[-1]
        else:
            try:
                idx = stack.index(frame)
            except ValueError:
                return  # already healed away by an outer span_end
            del stack[idx:]
        name = frame.name
        ns = self.now() - frame.start_ns
        nbytes = self._stats.stored_bytes - frame.start_bytes
        try:
            agg = self.spans[name]
        except KeyError:
            reg = self.registry
            agg = self.spans[name] = SpanStats(
                reg.counter("span_calls_total", span=name),
                reg.histogram("span_ns", span=name),
            )
        agg.count += 1
        agg.total_ns += ns
        agg.total_bytes += nbytes
        agg.self_ns += ns - frame.child_ns
        agg.self_bytes += nbytes - frame.child_bytes
        if stack:
            parent = stack[-1]
            parent.child_ns += ns
            parent.child_bytes += nbytes
            path = parent.path
        else:
            self._root_ns += ns
            self._root_bytes += nbytes
            path = ()
        agg.calls.value += 1.0
        agg.hist.observe(ns)
        if self.flight is not None:
            self.flight.on_span_close(name, frame.start_ns + ns, ns, path)

    @contextmanager
    def span(self, name: str):
        """Context-manager form for cold paths::

            with fs.obs.span("recovery.writeback"):
                ...
        """
        frame = self.span_begin(name)
        try:
            yield frame
        finally:
            self.span_end(frame)

    # -- contention (fed by the replay engine) -----------------------------

    def lock_wait(self, key: Hashable, ns: float) -> None:
        entry = self.lock_waits.get(key)
        if entry is None:
            entry = self.lock_waits[key] = [0, 0.0]
        entry[0] += 1
        entry[1] += ns
        meters = self._lock_wait_meters
        if meters is None:  # created at the first wait, so an uncontended run exports neither
            reg = self.registry
            meters = self._lock_wait_meters = (
                reg.counter("lock_waits_total"), reg.histogram("lock_wait_ns"))
        meters[0].value += 1.0
        meters[1].observe(ns)


def attach_telemetry(fs, registry: Optional[MetricsRegistry] = None,
                     telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Enable telemetry on a mounted file system.

    Binds a :class:`Telemetry` to the filesystem's cost recorders
    (foreground plus ``bg_recorder`` where one exists) and its device,
    then points ``fs.obs`` — and the protocol objects that keep their
    own reference (``fs.mgl``, ``fs.metalog``) — at the live sink. A
    flight recorder already on the device gets the span events, as it
    would had it been attached second.
    """
    tel = telemetry if telemetry is not None else Telemetry(registry)
    tel.bind(system_clocks(fs), fs.device)
    for observer in fs.device.observers:
        if hasattr(observer, "on_span_open"):
            tel.flight = observer
    fs.obs = tel
    for attr in ("mgl", "metalog"):
        obj = getattr(fs, attr, None)
        if obj is not None:
            obj.obs = tel
    return tel
