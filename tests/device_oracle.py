"""The references the device core is held to.

Each ``_v`` batch is, by contract, indistinguishable from the loop of
single-op calls below — same images, same ``DeviceStats``, same crash
points, same cost segments and the same event stream for every observer.
The loops lived in ``repro.nvm.device`` as a second code path; they are
the test oracle now. So is :func:`unfenced_words_full_scan`, the
reference for ``StoreBuffer.unfenced_words``.
"""

from __future__ import annotations

from repro.util import ATOMIC_UNIT


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


def unfenced_words_full_scan(buf) -> list:
    """Re-walk every dirty/pending word of a ``StoreBuffer``: the word
    set its incremental (touched-range + memo) tracker must report."""
    words = []
    for line_bitmap in (buf.dirty, buf.pending_set()):
        for start, end in line_bitmap.runs():
            for off in range(start, end, ATOMIC_UNIT):
                if buf.working[off : off + 8] != buf.durable[off : off + 8]:
                    words.append(off)
    return sorted(set(words))
