"""Chunked range bitmaps for the store-buffer's dirty and pending line sets.

The store buffer used to track these sets as sorted interval lists
(the reference ``tests/interval_oracle.py`` still compares against).
Interval lists are compact for a handful of large ranges but pay an
O(n) list splice per mutation once a workload scatters thousands of
disjoint small ranges — exactly the shape the hot write path produces.
This module replaces them with *chunked bitmaps* in the style of :mod:`repro.core.bitmap`'s packed
int masks: one Python int per fixed-size chunk of the device, one bit
per grain (a cache line, for both of the buffer's sets).

Representation
==============

``_chunks`` maps ``chunk_index -> mask`` where ``mask`` is a non-zero
int of up to :data:`CHUNK_BITS` bits.  Bit ``i`` of chunk ``c`` covers
the byte range ``[(c * CHUNK_BITS + i) << grain_shift, ... + grain)``.
Zero-valued chunks are deleted eagerly, so truthiness is ``bool(_chunks)``
and a mutation touches only the chunks its byte range overlaps: a 2 MB
store at line granularity ORs eight 4096-bit masks instead of splicing
a Python list, and a 64-byte store ORs one bit into one small int.

Ordering invariant (load-bearing for crash images)
==================================================

:meth:`RangeBitmap.runs` and :meth:`RangeBitmap.iter_intersect` yield
maximal coalesced ``[start, end)`` byte ranges in strictly ascending
order, merging runs across chunk borders — byte-for-byte the order the
sorted interval-list iteration produced.  ``StoreBuffer.unfenced_words``
derives crash-image candidate words by scanning these runs, and
``choose_persist_words`` flips one coin per candidate *in order*, so
ascending iteration is what keeps seeded crash images identical across
the representation change.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

#: bits per chunk (power of two).  At line granularity one chunk covers
#: 256 KB of device.
CHUNK_BITS = 4096
_CHUNK_SHIFT = CHUNK_BITS.bit_length() - 1
_CHUNK_MASK = CHUNK_BITS - 1
#: an all-ones chunk, built once (a 2 MB store fills whole chunks)
FULL_CHUNK = (1 << CHUNK_BITS) - 1


def iter_bit_runs(mask: int) -> Iterator[Tuple[int, int]]:
    """Yield maximal ``[lo, hi)`` runs of set bits in *mask*, ascending.

    O(number of runs), independent of chunk width: each step isolates
    the lowest set bit, measures the run of ones starting there with two
    int ops, and clears everything below the run's end.
    """
    while mask:
        low = (mask & -mask).bit_length() - 1
        tail = mask >> low
        # tail ends in >= 1 one-bits; tail ^ (tail + 1) is a mask of the
        # trailing ones plus the carry bit, so bit_length - 1 == run length.
        run = (tail ^ (tail + 1)).bit_length() - 1
        hi = low + run
        yield low, hi
        mask = mask >> hi << hi


class RangeBitmap:
    """A set of byte ranges at fixed power-of-two grain, stored as
    chunked int bitmaps.

    All methods take half-open byte ranges.  ``start`` is floored and
    ``end`` ceiled to the grain, matching how the interval-based tracker
    received already-aligned ranges from the store buffer.
    """

    __slots__ = ("grain", "shift", "_chunks")

    def __init__(self, grain: int) -> None:
        if grain & (grain - 1) or grain <= 0:
            raise ValueError(f"grain must be a power of two, got {grain}")
        self.grain = grain
        self.shift = grain.bit_length() - 1
        self._chunks: Dict[int, int] = {}

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._chunks)

    def __len__(self) -> int:
        """Number of maximal runs."""
        return sum(1 for _ in self.runs())

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return self.runs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"[{s}, {e})" for s, e in self.runs())
        return f"RangeBitmap<{self.grain}>({body})"

    def runs(self) -> Iterator[Tuple[int, int]]:
        """Maximal coalesced [start, end) byte runs, ascending."""
        shift = self.shift
        chunks = self._chunks
        cur_s = cur_e = -1
        for ci in sorted(chunks):
            base = ci << _CHUNK_SHIFT
            for lo, hi in iter_bit_runs(chunks[ci]):
                s = (base + lo) << shift
                e = (base + hi) << shift
                if s == cur_e:
                    cur_e = e
                else:
                    if cur_s >= 0:
                        yield cur_s, cur_e
                    cur_s, cur_e = s, e
        if cur_s >= 0:
            yield cur_s, cur_e

    def iter_intersect(self, start: int, end: int) -> Iterator[Tuple[int, int]]:
        """Clipped maximal runs of this set inside [start, end), ascending."""
        shift = self.shift
        b0 = start >> shift
        b1 = (end + self.grain - 1) >> shift
        if b0 >= b1:
            return
        chunks = self._chunks
        c0 = b0 >> _CHUNK_SHIFT
        c1 = (b1 - 1) >> _CHUNK_SHIFT
        cur_s = cur_e = -1
        for ci in range(c0, c1 + 1):
            mask = chunks.get(ci)
            if not mask:
                continue
            # limit the first and last chunk's mask to [start, end)
            if ci == c0:
                r0 = b0 & _CHUNK_MASK
                mask = mask >> r0 << r0
            if ci == c1:
                r1 = ((b1 - 1) & _CHUNK_MASK) + 1
                if r1 < CHUNK_BITS:
                    mask &= (1 << r1) - 1
            base = ci << _CHUNK_SHIFT
            for lo, hi in iter_bit_runs(mask):
                s = (base + lo) << shift
                e = (base + hi) << shift
                if s == cur_e:
                    cur_e = e
                else:
                    if cur_s >= 0:
                        yield cur_s, cur_e
                    cur_s, cur_e = s, e
        if cur_s >= 0:
            yield cur_s, cur_e

    # -- mutation --------------------------------------------------------

    def add(self, start: int, end: int) -> None:
        if start >= end:
            return
        shift = self.shift
        b0 = start >> shift
        b1 = (end + self.grain - 1) >> shift
        chunks = self._chunks
        c0 = b0 >> _CHUNK_SHIFT
        c1 = (b1 - 1) >> _CHUNK_SHIFT
        r0 = b0 & _CHUNK_MASK
        if c0 == c1:
            bits = ((1 << (b1 - b0)) - 1) << r0
            chunks[c0] = chunks.get(c0, 0) | bits
            return
        chunks[c0] = chunks.get(c0, 0) | (FULL_CHUNK >> r0 << r0)
        for ci in range(c0 + 1, c1):
            chunks[ci] = FULL_CHUNK
        r1 = ((b1 - 1) & _CHUNK_MASK) + 1
        chunks[c1] = chunks.get(c1, 0) | ((1 << r1) - 1)

    def remove(self, start: int, end: int) -> None:
        if start >= end or not self._chunks:
            return
        shift = self.shift
        b0 = start >> shift
        b1 = (end + self.grain - 1) >> shift
        chunks = self._chunks
        c0 = b0 >> _CHUNK_SHIFT
        c1 = (b1 - 1) >> _CHUNK_SHIFT
        r0 = b0 & _CHUNK_MASK
        if c0 == c1:
            old = chunks.get(c0)
            if old:
                new = old & ~(((1 << (b1 - b0)) - 1) << r0)
                if new:
                    chunks[c0] = new
                else:
                    del chunks[c0]
            return
        old = chunks.get(c0)
        if old:
            new = old & ((1 << r0) - 1)
            if new:
                chunks[c0] = new
            else:
                del chunks[c0]
        for ci in range(c0 + 1, c1):
            chunks.pop(ci, None)
        old = chunks.get(c1)
        if old:
            r1 = ((b1 - 1) & _CHUNK_MASK) + 1
            new = old >> r1 << r1
            if new:
                chunks[c1] = new
            else:
                del chunks[c1]

    def clear(self) -> None:
        self._chunks.clear()
