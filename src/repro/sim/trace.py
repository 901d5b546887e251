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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Protocol, Tuple, runtime_checkable

from repro.nvm.timing import TimingModel

Segment = Tuple  # ("compute", ns) | ("io", ns) | ("lock", key, mode) | ("unlock", key)


@runtime_checkable
class Recorder(Protocol):
    """The formal surface shared by :class:`TraceRecorder` and the
    :class:`TappedRecorder` wrapper.

    File-system code talks to its recorder only through these members,
    so a conforming wrapper can be swapped in without isinstance checks.
    ``timing`` prices media operations.
    """

    timing: TimingModel
    #: accumulated uncontended virtual time (the telemetry clock):
    #: every priced segment advances it by exactly what
    #: :meth:`OpTrace.duration_ns` would charge for that segment.
    clock_ns: float

    # -- op lifecycle --------------------------------------------------
    def begin_op(self, name: str) -> None: ...
    def end_op(self) -> "OpTrace": ...
    def take_completed(self) -> List["OpTrace"]: ...

    # -- explicit costs ------------------------------------------------
    def compute(self, ns: float) -> None: ...
    def lock(self, key: Hashable, mode: str) -> None: ...
    def unlock(self, key: Hashable) -> None: ...

    # -- device cost-recorder hooks ------------------------------------
    def io_write(self, nbytes: int) -> None: ...
    def io_cached(self, nbytes: int) -> None: ...
    def io_read(self, nbytes: int) -> None: ...
    def io_flush(self, nlines: int) -> None: ...
    def io_fence(self) -> None: ...


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
        self.clock_ns = 0.0

    # -- op lifecycle ------------------------------------------------------

    def begin_op(self, name: str) -> None:
        if self.current is not None:
            # Ambient (outside-an-op) costs get their own trace.
            self.completed.append(self.current)
        self.current = OpTrace(name=name)

    def end_op(self) -> OpTrace:
        trace = self.current if self.current is not None else OpTrace()
        self.completed.append(trace)
        self.current = None
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

    def unlock(self, key: Hashable) -> None:
        self._emit(("unlock", key))

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


class TappedRecorder:
    """A conforming :class:`Recorder` that tells a *listener* of op
    boundaries (``on_op_begin`` / ``on_op_end``) and, where the listener
    has the hooks, of lock events (``on_lock`` / ``on_unlock``), each
    after the wrapped recorder has handled it. Costs go straight to the
    wrapped recorder: the pricing members are its own bound methods, so
    wrapping adds no frame to them. Wrappers stack in any order."""

    def __init__(self, inner, listener) -> None:
        self.inner = inner
        self.listener = listener
        self.timing = inner.timing
        for name in ("take_completed", "compute", "io_write", "io_cached",
                     "io_read", "io_flush", "io_fence"):
            setattr(self, name, getattr(inner, name))
        if not hasattr(listener, "on_lock"):
            self.lock, self.unlock = inner.lock, inner.unlock

    @property
    def clock_ns(self) -> float:
        return self.inner.clock_ns

    def begin_op(self, name: str) -> None:
        self.inner.begin_op(name)
        self.listener.on_op_begin(name)

    def end_op(self) -> OpTrace:
        trace = self.inner.end_op()
        self.listener.on_op_end(trace.name)
        return trace

    def lock(self, key: Hashable, mode: str) -> None:
        self.inner.lock(key, mode)
        self.listener.on_lock(key, mode)

    def unlock(self, key: Hashable) -> None:
        self.inner.unlock(key)
        self.listener.on_unlock(key)
