"""Cost traces recorded by file-system operations.

A segment is a small tuple-like record; four kinds exist:

- ``("compute", ns)`` — CPU work on the calling thread.
- ``("io", ns)`` — a media operation that occupies one NVM channel.
- ``("lock", key, mode)`` — acquire *key* in MGL mode ``IR/IW/R/W``.
- ``("unlock", key)`` — release.

The recorder also implements the device's cost-recorder hooks
(io_write / io_cached / io_read / io_flush / io_fence), so attaching it
to an :class:`~repro.nvm.device.NvmDevice` (``device.attach(recorder)``)
prices all media traffic automatically.

Op and lock events have one observer seam, shaped like the device's:
``recorder.attach(listener)``. A listener has any subset of
``on_op_begin(name)`` / ``on_op_end(name)`` / ``on_lock(key, mode)`` /
``on_unlock(key)`` and is told **after** the recorder has handled the
event (trace in ``completed``, segment appended and priced), in attach
order. The recorder is never replaced, so every holder of a reference
(the file system, its MGL lock manager) is observed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from repro.nvm.timing import TimingModel

Segment = Tuple  # ("compute", ns) | ("io", ns) | ("lock", key, mode) | ("unlock", key)


@dataclass
class OpTrace:
    """The priced execution of one file-system operation."""

    name: str = "op"
    segments: List[Segment] = field(default_factory=list)

    def duration_ns(self, lock_ns: float = 0.0) -> float:
        """Uncontended duration: sum of compute + io, plus a fixed cost
        per lock/unlock event."""
        total = 0.0
        for seg in self.segments:
            kind = seg[0]
            if kind in ("compute", "io"):
                total += seg[1]
            else:
                total += lock_ns
        return total

    def io_ns(self) -> float:
        return sum(seg[1] for seg in self.segments if seg[0] == "io")

    def lock_keys(self) -> List[Hashable]:
        return [seg[1] for seg in self.segments if seg[0] == "lock"]


class TraceRecorder:
    """Accumulates segments for the operation currently executing.

    ``begin_op``/``end_op`` bracket one logical operation. When no op is
    open, costs are still accepted (they land in an "ambient" trace) so
    code paths can be shared between benchmarked and plain execution.
    """

    def __init__(self, timing: TimingModel) -> None:
        self.timing = timing
        self.current: Optional[OpTrace] = None
        self.completed: List[OpTrace] = []
        self.clock_ns = 0.0  # the telemetry clock, see _emit
        self.listeners: List[object] = []

    #: the listener seam: per hook, the bound methods that implement it
    _on_op_begin = _on_op_end = _on_lock = _on_unlock = ()

    def attach(self, listener):
        """Append *listener* and re-bind the hook tuples — any subset,
        duck-typed (``NvmDevice._bind``'s rule); returns the listener."""
        self.listeners.append(listener)
        for hook in ("on_op_begin", "on_op_end", "on_lock", "on_unlock"):
            setattr(self, "_" + hook, tuple(
                getattr(lst, hook) for lst in self.listeners if hasattr(lst, hook)))
        return listener

    # -- op lifecycle ------------------------------------------------------

    def begin_op(self, name: str) -> None:
        if self.current is not None:
            # Ambient (outside-an-op) costs get their own trace.
            self.completed.append(self.current)
        self.current = OpTrace(name=name)
        for tell in self._on_op_begin:
            tell(name)

    def end_op(self) -> OpTrace:
        trace = self.current if self.current is not None else OpTrace()
        self.completed.append(trace)
        self.current = None
        for tell in self._on_op_end:
            tell(trace.name)
        return trace

    def take_completed(self) -> List[OpTrace]:
        # Flush any open ambient trace (costs charged outside an op,
        # e.g. the database's SQL-layer CPU) so callers never lose it.
        if self.current is not None and self.current.name == "ambient":
            self.completed.append(self.current)
            self.current = None
        out = self.completed
        self.completed = []
        return out

    def _emit(self, segment: Segment) -> None:
        # Advance the telemetry clock by the uncontended cost of this
        # segment — the same pricing OpTrace.duration_ns applies, so the
        # clock always equals the sum over every recorded trace.
        kind = segment[0]
        if kind == "compute" or kind == "io":
            self.clock_ns += segment[1]
        else:
            self.clock_ns += self.timing.lock_ns
        if self.current is None:
            self.current = OpTrace(name="ambient")
        self.current.segments.append(segment)

    # -- explicit costs ------------------------------------------------------

    def compute(self, ns: float) -> None:
        if ns > 0:
            self._emit(("compute", ns))

    def lock(self, key: Hashable, mode: str) -> None:
        self._emit(("lock", key, mode))
        for tell in self._on_lock:
            tell(key, mode)

    def unlock(self, key: Hashable) -> None:
        self._emit(("unlock", key))
        for tell in self._on_unlock:
            tell(key)

    # -- device cost-recorder hooks -------------------------------------------

    def io_write(self, nbytes: int) -> None:
        visible = self.timing.media_write_ns(nbytes)
        occupancy = visible
        if self.timing.write_channel_ns_per_byte:
            occupancy = (
                self.timing.write_latency_ns
                + nbytes * self.timing.write_channel_ns_per_byte
            )
        self._emit(("io", visible, occupancy))

    def io_cached(self, nbytes: int) -> None:
        """A store that lands in the CPU cache: cheap; the media cost is
        charged by the flush that later writes the line back."""
        self._emit(("compute", 12.0 + nbytes * 0.02))

    def io_read(self, nbytes: int) -> None:
        self._emit(("io", self.timing.media_read_ns(nbytes)))

    def io_flush(self, nlines: int) -> None:
        if nlines > 0:
            self._emit(("io", nlines * self.timing.flush_ns))

    def io_fence(self) -> None:
        self._emit(("compute", self.timing.fence_ns))
