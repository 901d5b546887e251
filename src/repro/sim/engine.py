"""Replay recorded traces under contention.

Each simulated thread owns an ordered list of :class:`OpTrace`; the
engine interleaves their segments on a virtual clock:

- compute segments advance only the owning thread;
- io segments occupy one of ``timing.channels`` NVM channels (FIFO);
- lock/unlock segments arbitrate via MGL-compatible virtual locks,
  parking threads that cannot be granted and waking them FIFO on
  release.

The result's makespan is the basis for multi-thread throughput (Fig 10).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence

from repro.errors import SimulationError
from repro.nvm.timing import TimingModel
from repro.sim.locks import LockTable
from repro.sim.trace import OpTrace, Segment


@dataclass
class ThreadStats:
    finish_ns: float = 0.0
    compute_ns: float = 0.0
    io_ns: float = 0.0
    lock_wait_ns: float = 0.0
    ops: int = 0
    blocked_acquires: int = 0


@dataclass
class ReplayResult:
    makespan_ns: float
    threads: List[ThreadStats] = field(default_factory=list)
    #: optional (tid, start_ns, end_ns, kind) events; kind in
    #: {"compute", "io", "wait"} — filled when run(record_timeline=True)
    timeline: List[tuple] = field(default_factory=list)

    @property
    def total_lock_wait_ns(self) -> float:
        return sum(t.lock_wait_ns for t in self.threads)

    def throughput_bytes_per_sec(self, total_bytes: int) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return total_bytes / (self.makespan_ns * 1e-9)


class _Thread:
    __slots__ = ("tid", "segments", "cursor", "clock", "stats", "wait_started")

    def __init__(self, tid: int, segments: List[Segment]) -> None:
        self.tid = tid
        self.segments = segments
        self.cursor = 0
        self.clock = 0.0
        self.stats = ThreadStats()
        self.wait_started = 0.0

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.segments)


class ReplayEngine:
    """Deterministic virtual-time replay of per-thread segment streams."""

    def __init__(self, timing: TimingModel, obs=None) -> None:
        self.timing = timing
        if obs is None:
            from repro.obs.spans import NULL_SINK

            obs = NULL_SINK
        #: telemetry sink; when enabled, every satisfied blocked acquire
        #: reports its wait time for the lock-contention top-N view.
        self.obs = obs

    def run(
        self,
        per_thread_traces: Sequence[Sequence[OpTrace]],
        record_timeline: bool = False,
        background: int = 0,
        start_times: Sequence[float] = None,
    ) -> ReplayResult:
        """Replay the streams; the last *background* streams are daemon
        threads (e.g. the MGSP async write-back flusher): they contend
        for NVM channels and locks like any other thread, but their tail
        does not extend the makespan — application throughput is judged
        by when the foreground threads finish.

        ``start_times`` (one virtual-ns value per stream, default all
        zero) delays each thread's first segment to its arrival time —
        the multi-tenant service layer uses this to stagger tenant
        admission instead of releasing every client at t=0. An arrived
        thread competes for channels and locks exactly like one that
        started at zero; an empty stream simply finishes on arrival.
        """
        threads = []
        for tid, traces in enumerate(per_thread_traces):
            segments: List[Segment] = []
            for trace in traces:
                segments.extend(trace.segments)
            thread = _Thread(tid, segments)
            thread.stats.ops = len(traces)
            threads.append(thread)

        if start_times is not None and len(start_times) != len(threads):
            raise SimulationError(
                f"start_times has {len(start_times)} entries for "
                f"{len(threads)} streams"
            )

        locks = LockTable()
        channels = [0.0] * max(1, self.timing.channels)
        ready: List = []  # (time, seq, tid)
        seq = 0
        for thread in threads:
            start = float(start_times[thread.tid]) if start_times is not None else 0.0
            thread.clock = start
            if not thread.done:
                heapq.heappush(ready, (start, seq, thread.tid))
                seq += 1
            else:
                thread.stats.finish_ns = start
        parked: Dict[int, Hashable] = {}  # tid -> lock key it waits on
        timeline: List[tuple] = []

        lock_ns = self.timing.lock_ns

        def wake(thread: _Thread, at: float) -> None:
            nonlocal seq
            thread.clock = at
            heapq.heappush(ready, (at, seq, thread.tid))
            seq += 1

        while ready:
            now, _, tid = heapq.heappop(ready)
            thread = threads[tid]
            if thread.done:
                thread.stats.finish_ns = max(thread.stats.finish_ns, now)
                continue
            segment = thread.segments[thread.cursor]
            kind = segment[0]

            if kind == "compute":
                # A compute run advances only this thread: consume it in
                # one pop and wake once, at its arrival at the next shared
                # segment. One addition per segment, in recorded order —
                # (t+a)+b, never t+(a+b) — and one push per run whether or
                # not a timeline is kept, since ``seq`` breaks ties.
                segments, cursor = thread.segments, thread.cursor
                stats = thread.stats
                clock = now
                while True:
                    ns = segments[cursor][1]
                    if record_timeline and ns > 0:
                        timeline.append((tid, clock, clock + ns, "compute"))
                    clock += ns
                    stats.compute_ns += ns
                    cursor += 1
                    if cursor == len(segments) or segments[cursor][0] != "compute":
                        break
                thread.cursor = cursor
                wake(thread, clock)

            elif kind == "io":
                thread.cursor += 1
                best = min(range(len(channels)), key=channels.__getitem__)
                start = max(now, channels[best])
                visible = segment[1]
                occupancy = segment[2] if len(segment) > 2 else visible
                channels[best] = start + occupancy
                thread.stats.io_ns += visible
                thread.stats.lock_wait_ns += start - now  # channel queueing
                if record_timeline:
                    if start > now:
                        timeline.append((tid, now, start, "wait"))
                    if visible > 0:
                        timeline.append((tid, start, start + visible, "io"))
                wake(thread, start + visible)

            elif kind == "lock":
                key, mode = segment[1], segment[2]
                lock = locks.get(key)
                if lock.waiters or not lock.can_grant(tid, mode):
                    lock.waiters.append((tid, mode))
                    parked[tid] = key
                    thread.wait_started = now
                    thread.stats.blocked_acquires += 1
                else:
                    lock.grant(tid, mode)
                    thread.cursor += 1
                    wake(thread, now + lock_ns)

            elif kind == "unlock":
                key = segment[1]
                lock = locks.get(key)
                lock.release(tid)
                thread.cursor += 1
                wake(thread, now + lock_ns)
                for waiter_tid, _mode in lock.grantable_waiters():
                    waiter = threads[waiter_tid]
                    parked.pop(waiter_tid, None)
                    waiter.stats.lock_wait_ns += now - waiter.wait_started
                    if self.obs.enabled:
                        self.obs.lock_wait(key, now - waiter.wait_started)
                    if record_timeline and now > waiter.wait_started:
                        timeline.append((waiter_tid, waiter.wait_started, now, "wait"))
                    waiter.cursor += 1  # the lock segment is satisfied
                    wake(waiter, now + lock_ns)

            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown segment kind {kind!r}")

            if thread.done and tid not in parked:
                thread.stats.finish_ns = max(thread.stats.finish_ns, thread.clock)

        if parked:
            stuck = {tid: key for tid, key in parked.items()}
            raise SimulationError(f"replay deadlock; parked threads: {stuck}")

        foreground = threads[: len(threads) - background] if background > 0 else threads
        makespan = max((t.stats.finish_ns for t in foreground), default=0.0)
        return ReplayResult(
            makespan_ns=makespan,
            threads=[t.stats for t in threads],
            timeline=timeline,
        )
