"""The simulated NVM DIMM: store buffer + traffic counters + one observer seam."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.cache import StoreBuffer
from repro.nvm.timing import OptaneTiming, TimingModel


@dataclass
class DeviceStats:
    """Raw traffic counters, the ground truth for Table II.

    ``stored_bytes`` counts every byte handed to the device's write path
    (the paper's "write size received at the PMDK library").
    """

    stored_bytes: int = 0
    loaded_bytes: int = 0
    flushed_lines: int = 0
    #: clwb *calls* (one per flushed range, even when every covered line
    #: is clean) — the unit :meth:`EventCounter.on_event` is asked in, unlike
    #: ``flushed_lines`` which is a cost metric.
    flush_calls: int = 0
    fences: int = 0
    stores: int = 0
    loads: int = 0
    #: wasted persistence ops (perf diagnostics, not correctness):
    #: a clwb call that covered only clean lines, and an sfence issued
    #: with nothing pending — both cost Optane bandwidth/latency for no
    #: durability gain. Surfaced by ``repro.analysis`` reports.
    redundant_flushes: int = 0
    redundant_fences: int = 0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(**vars(self))

    def delta(self, since: "DeviceStats") -> "DeviceStats":
        return DeviceStats(
            stored_bytes=self.stored_bytes - since.stored_bytes,
            loaded_bytes=self.loaded_bytes - since.loaded_bytes,
            flushed_lines=self.flushed_lines - since.flushed_lines,
            flush_calls=self.flush_calls - since.flush_calls,
            fences=self.fences - since.fences,
            stores=self.stores - since.stores,
            loads=self.loads - since.loads,
            redundant_flushes=self.redundant_flushes - since.redundant_flushes,
            redundant_fences=self.redundant_fences - since.redundant_fences,
        )


#: The hooks an observer may implement — any subset, duck-typed. Which
#: ones it has decides its role:
#:
#: - an *event counter* (:class:`repro.nvm.crash.EventCounter`; a
#:   ``CrashPlan`` is one): ``on_event(kind)`` before each store / clwb
#:   call / fence is applied, with ``on_batch(n, kinds)`` to consume a
#:   whole ``_v`` batch at once;
#: - a *cost recorder* (:class:`repro.sim.trace.TraceRecorder`): the
#:   ``io_*`` hooks, pricing each media operation once it is applied;
#: - a *tap* (:class:`repro.obs.flight.FlightRecorder`): ``on_store`` /
#:   ``on_flush`` / ``on_fence`` once per persistence event, ``on_drain``.
_PRICING_HOOKS = ("io_cached", "io_write", "io_read", "io_flush", "io_fence")
_EVENT_HOOKS = ("on_event", "on_store", "on_flush", "on_fence", "on_drain")


class NvmDevice:
    """Byte-addressable persistent device with explicit persistence ops.

    Everything that watches the device is an entry of one ordered list,
    :attr:`observers`. Per event the order is fixed: event counters are
    asked before the event is applied; once it is, cost recorders price
    it and then taps see it — so a tap that reads the virtual clock
    reads the cost of the event it is told about. Within a role,
    observers run in attach order.

    ``nt_store_v`` and ``store_word_v`` apply a whole batch through the
    buffer's validate-then-mutate bulk calls and then notify per element
    in that same order, so every observer sees the event stream, indices
    and trace segments of the equivalent loop of single-op calls. That
    loop itself runs only for a batch a counter must stop inside, and
    to reproduce the exact partial state of a batch with a bad element.
    ``store_v`` and ``flush_v`` have no caller on a hot path and are
    that loop.
    """

    def __init__(
        self,
        size: int,
        timing: Optional[TimingModel] = None,
        name: str = "pmem0",
        image=None,
    ) -> None:
        self.size = size
        self.name = name
        self.timing = timing or OptaneTiming()
        self.buffer = StoreBuffer(size, image)
        self.stats = DeviceStats()
        self.observers: List[object] = []
        self._repriced = None
        self._bind()

    # -- the observer seam --------------------------------------------------

    def attach(self, observer):
        """Append *observer* to the list; returns it."""
        self.observers.append(observer)
        self._bind()
        return observer

    def detach(self, observer) -> None:
        """Remove *observer*; a no-op when it is not attached."""
        if observer in self.observers:
            self.observers.remove(observer)
            self._bind()

    def reprice(self, recorder) -> None:
        """Price media operations on *recorder* alone — a background
        stream's drain — until ``reprice(None)`` hands pricing back to
        the attached cost recorders. Crash plans and taps see every
        event throughout."""
        self._repriced = recorder
        self._bind()

    def _bind(self) -> None:
        """Resolve each hook to the bound methods that implement it, so
        an event costs one call per interested observer and nothing for
        the rest."""
        observers = self.observers
        pricing = observers if self._repriced is None else (self._repriced,)
        for hooks, sources in ((_PRICING_HOOKS, pricing), (_EVENT_HOOKS, observers)):
            for hook in hooks:
                setattr(self, "_" + hook, tuple(
                    getattr(obs, hook) for obs in sources if hasattr(obs, hook)))
        self._plans = tuple(obs for obs in observers if hasattr(obs, "on_event"))

    def _admit(self, n: int, *kinds: str) -> bool:
        """Offer every event counter a batch of *n* events of each of
        *kinds*. False when a counter's point lies inside it: nothing is
        consumed and the caller replays the batch per element."""
        plans = self._plans
        for i, plan in enumerate(plans):
            if not plan.on_batch(n, kinds):
                for earlier in plans[:i]:
                    earlier.on_batch(-n, kinds)
                return False
        return True

    # -- persistence primitives -------------------------------------------

    def store(self, offset: int, data: bytes) -> None:
        """Cached store: visible immediately, durable only after persist."""
        for gate in self._on_event:
            gate("store")
        self.buffer.store(offset, data)
        size = len(data)
        self.stats.stores += 1
        self.stats.stored_bytes += size
        for price in self._io_cached:
            price(size)
        for tap in self._on_store:
            tap(offset, size, "store")

    def nt_store(self, offset: int, data: bytes) -> None:
        """Non-temporal store: bypasses the cache (store + clwb in one);
        still requires a fence to be ordered-durable."""
        for gate in self._on_event:
            gate("store")
        # analysis: allow(unfenced-nt-store) -- this *is* the primitive; ordering is the caller's contract
        flushed = self.buffer.nt_store(offset, data)
        size = len(data)
        self.stats.stores += 1
        self.stats.stored_bytes += size
        self.stats.flushed_lines += flushed
        for price in self._io_write:
            price(size)
        for tap in self._on_store:
            tap(offset, size, "nt")

    def atomic_store_u64(self, offset: int, value: int) -> None:
        for gate in self._on_event:
            gate("store")
        self.buffer.atomic_store_u64(offset, value)
        self.stats.stores += 1
        self.stats.stored_bytes += 8
        for price in self._io_cached:
            price(8)
        for tap in self._on_store:
            tap(offset, 8, "atomic")

    def load(self, offset: int, length: int) -> bytes:
        data = self.buffer.load(offset, length)
        self.stats.loads += 1
        self.stats.loaded_bytes += length
        for price in self._io_read:
            price(length)
        return data

    def load_u64(self, offset: int) -> int:
        return int.from_bytes(self.load(offset, 8), "little")

    def flush(self, offset: int, length: int) -> None:
        for gate in self._on_event:
            gate("flush")
        self.stats.flush_calls += 1
        nlines = self.buffer.flush(offset, length)
        self.stats.flushed_lines += nlines
        if nlines == 0:
            self.stats.redundant_flushes += 1
        for price in self._io_flush:
            price(nlines)
        for tap in self._on_flush:
            tap(offset, length, nlines)

    def fence(self) -> None:
        for gate in self._on_event:
            gate("fence")
        if not self.buffer.has_pending():
            self.stats.redundant_fences += 1
        self.buffer.fence()
        self.stats.fences += 1
        for price in self._io_fence:
            price()
        for tap in self._on_fence:
            tap()

    def persist(self, offset: int, length: int) -> None:
        """flush + fence of one range (pmem_persist)."""
        self.flush(offset, length)
        self.fence()

    # -- scatter-gather entry points ---------------------------------------
    #
    # One Python call issues a whole interval list. Accounting stays per
    # logical op: every element still counts one store (and one crash-plan
    # event, one cost segment, one tap event), so DeviceStats, trace costs
    # and crash-point enumeration are byte-for-byte those of a loop of
    # single-op calls — the batching only removes interpreter overhead.

    def store_v(self, writes: Sequence[Tuple[int, bytes]]) -> None:
        """Cached store of (offset, data) pairs, one :meth:`store` each."""
        for offset, data in writes:
            self.store(offset, data)

    def nt_store_v(self, writes: Sequence[Tuple[int, bytes]]) -> None:
        """Vectorized non-temporal store of (offset, data) pairs."""
        n = len(writes)
        if not self._plans or self._admit(n, "store"):
            try:
                # analysis: allow(unfenced-nt-store) -- this *is* the primitive; ordering is the caller's contract
                total, lines = self.buffer.nt_store_v(writes)
            except OutOfRangeError:
                self._admit(-n, "store")  # handed back: replayed below
            else:
                stats = self.stats
                stats.stores += n
                stats.stored_bytes += total
                stats.flushed_lines += lines
                prices, taps = self._io_write, self._on_store
                if prices or taps:
                    for offset, data in writes:
                        size = len(data)
                        for price in prices:
                            price(size)
                        for tap in taps:
                            tap(offset, size, "nt")
                return
        for offset, data in writes:
            self.nt_store(offset, data)

    def store_word_v(self, words: Sequence[Tuple[int, int]]) -> None:
        """Vectorized ``atomic_store_u64 + flush`` of (offset, value)
        pairs — the metadata-word commit pattern — fused through the
        buffer's non-temporal word store: the net effect on
        working/dirty/pending state and on DeviceStats is
        provably that of the two-step primitives (the just-stored line
        is always dirty, so the flush always queues exactly that one
        line), and observers are told of a store and a one-line flush
        per word."""
        n = len(words)
        if not self._plans or self._admit(n, "store", "flush"):
            try:
                # analysis: allow(unfenced-nt-store) -- this *is* the primitive; ordering is the caller's contract
                self.buffer.nt_store_words(words)
            except (TornWriteError, OutOfRangeError):
                self._admit(-n, "store", "flush")  # handed back: replayed below
            else:
                stats = self.stats
                stats.stores += n
                stats.stored_bytes += 8 * n
                stats.flushed_lines += n
                stats.flush_calls += n
                cached, flushed = self._io_cached, self._io_flush
                stored, flush_taps = self._on_store, self._on_flush
                if cached or flushed or stored or flush_taps:
                    for offset, _value in words:
                        for price in cached:
                            price(8)
                        for tap in stored:
                            tap(offset, 8, "atomic")
                        for price in flushed:
                            price(1)
                        for tap in flush_taps:
                            tap(offset, 8, 1)
                return
        for offset, value in words:
            self.atomic_store_u64(offset, value)
            self.flush(offset, 8)

    def flush_v(self, ranges: Sequence[Tuple[int, int]]) -> None:
        """clwb of (offset, length) ranges, one :meth:`flush` each."""
        for offset, length in ranges:
            self.flush(offset, length)

    # -- crash / recovery ---------------------------------------------------

    def crash_image(
        self,
        persist_words: Optional[Iterable[int]] = None,
        rng: Optional[random.Random] = None,
        persist_probability: float = 0.5,
    ) -> bytes:
        """A possible post-crash content of the medium (see StoreBuffer)."""
        return self.buffer.crash_image(persist_words, rng, persist_probability)

    def unfenced_words(self):
        return self.buffer.unfenced_words()

    def drain(self) -> None:
        """Orderly shutdown: everything written becomes durable."""
        self.buffer.drain()
        for tap in self._on_drain:
            tap()

    @classmethod
    def from_image(
        cls, image: bytes, timing: Optional[TimingModel] = None, name: str = "pmem0"
    ) -> "NvmDevice":
        """Boot a device from a crash image (the recovered machine).
        *image* is never observably aliased, and what the boot copies
        depends on what it is: immutable ``bytes`` are shared as the
        base of the device's copy-on-write image (no copy), another
        booted device's live ``buffer.working`` (``.durable`` while no
        store is unfenced) shares that device's base and copies only
        its written pages, and anything else (``bytearray``, a fresh
        device's mmap view) is snapshotted once."""
        return cls(len(image), timing=timing, name=name, image=image)

    # -- derived accounting --------------------------------------------------

    def write_amplification(self, api_bytes: int, since: Optional[DeviceStats] = None) -> float:
        """Device bytes written / API bytes, optionally since a snapshot."""
        stats = self.stats if since is None else self.stats.delta(since)
        if api_bytes <= 0:
            return 0.0
        return stats.stored_bytes / api_bytes
