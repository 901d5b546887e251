"""The references the device core is held to.

Each ``_v`` batch is, by contract, indistinguishable from the loop of
single-op calls below — same images, same ``DeviceStats``, same crash
points, same cost segments and the same event stream for every observer.
The loops lived in ``repro.nvm.device`` as a second code path; they are
the test oracle now. So is :func:`differing_words`, the reference for
``StoreBuffer.unfenced_words``, and :class:`FullCopyBuffer`, the
reference for ``StoreBuffer``'s images, drain and crash images.
"""

from __future__ import annotations

from repro.nvm.cache import choose_persist_words
from repro.util import ATOMIC_UNIT, CACHE_LINE


def store_v(device, writes) -> None:
    for offset, data in writes:
        device.store(offset, data)


def nt_store_v(device, writes) -> None:
    for offset, data in writes:
        device.nt_store(offset, data)


def store_word_v(device, words) -> None:
    for offset, value in words:
        device.atomic_store_u64(offset, value)
        device.flush(offset, 8)


def flush_v(device, ranges) -> None:
    for offset, length in ranges:
        device.flush(offset, length)


PER_ELEMENT = {
    "store_v": store_v,
    "nt_store_v": nt_store_v,
    "store_word_v": store_word_v,
    "flush_v": flush_v,
}


def apply(device, entry: str, items, batched: bool) -> None:
    """One batch through the ``_v`` entry point, or through its oracle."""
    if batched:
        getattr(device, entry)(items)
    else:
        PER_ELEMENT[entry](device, items)


def differing_words(working, durable) -> list:
    """Every word offset where the two images differ, ascending: one
    pass over the whole images that consults no dirty or pending set, so
    it also catches a differing word the buffer lost track of."""
    working, durable = bytes(working), bytes(durable)
    return [
        off
        for off in range(0, len(working), ATOMIC_UNIT)
        if working[off : off + 8] != durable[off : off + 8]
    ]


class FullCopyBuffer:
    """The two-image store-buffer semantics with nothing incremental:
    eager ``bytearray`` images, line sets, and whole-image passes for
    ``drain`` and the crash-candidate scan. What ``StoreBuffer`` must be
    indistinguishable from, image for image and word for word."""

    def __init__(self, size: int, image=None) -> None:
        self.working = bytearray(size) if image is None else bytearray(image)
        self.durable = bytearray(self.working)
        self.dirty = set()  # line numbers stored, not flushed
        self.pending = set()  # line numbers flushed, not fenced

    @staticmethod
    def _lines(offset: int, length: int) -> range:
        return range(offset // CACHE_LINE, (offset + length - 1) // CACHE_LINE + 1)

    def store(self, offset: int, data) -> None:
        self.working[offset : offset + len(data)] = data
        self.dirty.update(self._lines(offset, len(data)))

    def flush(self, offset: int, length: int) -> int:
        hit = self.dirty.intersection(self._lines(offset, length))
        self.dirty -= hit
        self.pending |= hit
        return len(hit)

    def nt_store(self, offset: int, data) -> int:
        self.store(offset, data)
        return self.flush(offset, len(data))

    def nt_store_words(self, words) -> None:
        for offset, value in words:
            self.nt_store(offset, value.to_bytes(8, "little"))

    def fence(self) -> None:
        for line in self.pending:
            lo = line * CACHE_LINE
            self.durable[lo : lo + CACHE_LINE] = self.working[lo : lo + CACHE_LINE]
        self.pending.clear()

    def drain(self) -> None:
        self.durable[:] = self.working
        self.dirty.clear()
        self.pending.clear()

    def unfenced_words(self) -> list:
        return differing_words(self.working, self.durable)

    def crash_image(self, rng, persist_probability: float = 0.5) -> bytearray:
        image = bytearray(self.durable)
        for off in choose_persist_words(self.unfenced_words(), rng, persist_probability):
            image[off : off + 8] = self.working[off : off + 8]
        return image
