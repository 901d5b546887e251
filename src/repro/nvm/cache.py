"""CPU store-buffer / cache model in front of the durable medium.

Semantics (matching x86 + ADR persistence):

- ``store`` writes are immediately visible to loads but *volatile*.
- ``flush`` (clwb) queues the covered cache lines for write-back.
- ``fence`` (sfence) guarantees every queued line is durable.
- Any dirty or queued line may *also* become durable at any moment
  (cache eviction), so a crash image is: the fenced image, plus an
  arbitrary subset of unfenced 8-byte words.

Word (8-byte) granularity is the atomicity unit: an aligned 8-byte store
never tears, anything larger may persist partially.

Representation
==============

Five fields, nothing else:

- ``working`` — what loads observe; ``durable`` — what survives a crash.
  Every store, load and copy between them is a slice read or a slice
  assignment on these two objects; what backs them follows from how the
  buffer starts. A *fresh* device lives for a whole workload and takes
  millions of stores: two lazily zero-filled anonymous mappings behind
  ``memoryview``\\ s, C slices over pages the kernel hands out on first
  write. A device *booted from content* lives for one recovery (~130
  device events, ~20 of 1,024 pages written): two :class:`PagedImage`\\ s
  over one shared immutable ``bytes``, a page lookup per slice instead
  of two whole-image heap copies — which cost fresh pages, not memcpy
  (glibc trims the freed heap top, so every copy faults its pages in
  again), and a sparse mapping filled with the non-zero pages measured
  worse still (each whole-image read then faults the zero pages). Only
  ``crash_image`` (one ``bytes`` that outlives the buffer) is
  proportional to the provisioned size.
- ``dirty`` — the stored-not-flushed cache lines, a chunked line bitmap
  (:class:`repro.nvm.bitmap.RangeBitmap`): a bulk store is one slice
  assignment plus a few chunk-mask ORs, a small store ORs one bit.
- ``_pending_log`` — the flushed-not-fenced lines, as the raw
  line-aligned ranges ``flush`` / ``nt_store*`` queued, in issue order.
  It is never folded into a set on the store path: ``fence`` replays
  the ranges as they are (duplicates and overlaps copy the same bytes
  twice) and drops the list.
- ``_uw_cache`` — the memoized crash-candidate word list, dropped by
  every mutation.

One invariant ties them together: **every word where ``working`` and
``durable`` differ lies in a dirty or a pending line.** A store adds its
lines to one of the two sets, a flush moves lines from the first to the
second, and a line leaves both only in ``fence`` / ``drain``, after it
was copied. So ``unfenced_words`` and ``drain`` walk the coalesced runs
of ``dirty ∪ pending`` in ascending offset order and never look at the
rest of the image, and ``choose_persist_words`` — one coin per
candidate, in order — yields the same subset from the same seed
whatever order the stores were issued in.
"""

from __future__ import annotations

import mmap
import random
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.bitmap import RangeBitmap
from repro.util import ATOMIC_UNIT, CACHE_LINE

# Alignment masks (power-of-two sizes): x & _LINE_MASK == align_down,
# (x + LINE - 1) & _LINE_MASK == align_up. Inlined in the hot methods —
# these run several times per simulated write.
_LINE = CACHE_LINE
_LINE_MASK = -CACHE_LINE
_LINE_SHIFT = CACHE_LINE.bit_length() - 1

#: line runs at least this long diff working vs durable through a
#: vectorized uint64 compare; shorter runs stay on the per-word loop
#: (less constant overhead). Both scans emit words in ascending order.
_VECTOR_SCAN_BYTES = 1024


def choose_persist_words(
    candidates: Sequence[int], rng: random.Random, persist_probability: float
) -> List[int]:
    """The word subset a random crash persists: each candidate flips the
    given rng's coin, *in candidate order*. Kept as a standalone function
    so crash-image composition and the crash-sweep minimizer derive the
    identical subset from the same seed."""
    return [w for w in candidates if rng.random() < persist_probability]


#: copy-on-write granularity of an image booted from content
PAGE = 4096
_PAGE_SHIFT = PAGE.bit_length() - 1


class PagedImage:
    """A byte image as an immutable shared ``bytes`` base plus the pages
    written since, each a private ``bytearray`` made on first write,
    with the surface :class:`StoreBuffer` uses on a ``memoryview``:
    slice read (a ``bytes`` copy), equal-length slice assignment,
    ``len``, ``bytes()``, ``==``. A copy shares the base and copies the
    private pages."""

    __slots__ = ("base", "pages")

    def __init__(self, image) -> None:
        if isinstance(image, PagedImage):
            self.base = image.base
            self.pages = {n: bytearray(page) for n, page in image.pages.items()}
        else:
            self.base = bytes(image)  # bytes are shared, anything mutable is snapshotted
            self.pages = {}

    def __len__(self) -> int:
        return len(self.base)

    def _pieces(self, start: int, stop: int):
        """[start, stop) in ascending order: views of the base between
        private pages, and the private pages' own slices."""
        first, last = start >> _PAGE_SHIFT, (stop - 1) >> _PAGE_SHIFT
        base = memoryview(self.base)
        pages = self.pages
        for n in sorted(n for n in pages if first <= n <= last):
            lo = n << _PAGE_SHIFT
            if start < lo:
                yield base[start:lo]
            yield pages[n][max(start - lo, 0) : stop - lo]
            start = lo + PAGE
        if start < stop:
            yield base[start:stop]

    def __getitem__(self, key: slice) -> bytes:
        start, stop, _ = key.indices(len(self.base))
        n = start >> _PAGE_SHIFT
        if n != (stop - 1) >> _PAGE_SHIFT:
            return b"".join(self._pieces(start, stop))
        page = self.pages.get(n)  # inside one page: nearly every load
        if page is None:
            return self.base[start:stop]
        lo = n << _PAGE_SHIFT
        return bytes(page[start - lo : stop - lo])

    def __setitem__(self, key: slice, data) -> None:
        start, stop, _ = key.indices(len(self.base))
        data = memoryview(data)
        if len(data) != stop - start:
            raise ValueError(f"{len(data)} bytes assigned to a slice of {stop - start}")
        pages = self.pages
        for n in range(start >> _PAGE_SHIFT, ((stop - 1) >> _PAGE_SHIFT) + 1):
            lo = n << _PAGE_SHIFT
            page = pages.get(n)
            if page is None:
                page = pages[n] = bytearray(self.base[lo : lo + PAGE])
            a, b = max(start, lo), min(stop, lo + PAGE)
            page[a - lo : b - lo] = data[a - start : b - start]

    def __bytes__(self) -> bytes:
        return self[:] if self.pages else self.base

    def __eq__(self, other) -> bool:
        """By content. Two images over the same base object can differ
        only in a page private to either, so only those are compared."""
        if isinstance(other, PagedImage) and other.base is self.base:
            starts = (n << _PAGE_SHIFT for n in self.pages.keys() | other.pages.keys())
            return all(self[lo : lo + PAGE] == other[lo : lo + PAGE] for lo in starts)
        if isinstance(other, (PagedImage, bytes, bytearray, memoryview)):
            return bytes(self) == bytes(other)
        return NotImplemented


class StoreBuffer:
    """Volatile view over a durable byte image."""

    def __init__(self, size: int, image=None) -> None:
        """A fresh all-zero device of *size* bytes, or one booted from
        *image* (*size* bytes of content, never observably aliased)."""
        self.size = size
        #: ``working`` is what loads observe, ``durable`` what survives a
        #: crash (fenced). Mappings the kernel zero-fills on first touch,
        #: or copy-on-write pages over the content (module docstring):
        #: either way a device costs what it writes, not its size.
        if image is None:
            self.working = memoryview(mmap.mmap(-1, size))
            self.durable = memoryview(mmap.mmap(-1, size))
        else:
            if len(image) != size:
                raise OutOfRangeError(f"image of {len(image)} bytes for a device of {size}")
            self.working = PagedImage(image)
            self.durable = PagedImage(self.working)
        self.dirty = RangeBitmap(CACHE_LINE)  # stored, not flushed
        #: flushed, not fenced: the raw line-aligned ranges in issue
        #: order, duplicates and overlaps included (see the module
        #: docstring for why it is a list and not a set).
        self._pending_log: List[tuple] = []
        self._uw_cache: Optional[List[int]] = None

    def pending_set(self) -> RangeBitmap:
        """The flushed-not-fenced lines as a bitmap, built per call (for
        inspection; nothing on the store path needs set semantics)."""
        pending = RangeBitmap(CACHE_LINE)
        for start, end in self._pending_log:
            pending.add(start, end)
        return pending

    def has_pending(self) -> bool:
        """Whether a fence would make anything durable."""
        return bool(self._pending_log)

    def _volatile_runs(self):
        """Coalesced runs of ``dirty ∪ pending``, ascending: the only
        lines where the two images can differ."""
        lines = self.pending_set()
        for start, end in self.dirty.runs():
            lines.add(start, end)
        return lines.runs()

    # -- the persistence primitives ---------------------------------------

    def store(self, offset: int, data) -> None:
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"store [{offset}, {end}) outside device of {self.size}")
        self.working[offset:end] = data
        self.dirty.add(offset & _LINE_MASK, (end + _LINE - 1) & _LINE_MASK)
        self._uw_cache = None

    def store_v(self, writes: Sequence[Tuple[int, bytes]]) -> int:
        """One :meth:`store` per (offset, data) pair; returns total bytes
        stored."""
        total = 0
        for offset, data in writes:
            self.store(offset, data)
            total += len(data)
        return total

    def nt_store(self, offset: int, data) -> int:
        """Fused store + flush of exactly the stored range (non-temporal
        store). Equivalent to ``store`` followed by ``flush`` over the
        same bytes — the just-stored lines are always dirty, so the
        intermediate dirty-set round trip is skipped. Returns the number
        of lines queued (identical to what ``flush`` would report).
        """
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"store [{offset}, {end}) outside device of {self.size}")
        self.working[offset:end] = data
        start = offset & _LINE_MASK
        aend = (end + _LINE - 1) & _LINE_MASK
        if self.dirty:
            self.dirty.remove(start, aend)
        self._pending_log.append((start, aend))
        self._uw_cache = None
        return (aend - start) >> _LINE_SHIFT

    def nt_store_v(self, writes: Sequence[Tuple[int, bytes]]) -> Tuple[int, int]:
        """Bulk :meth:`nt_store`: identical per-element state transitions,
        shared attribute lookups. Validates every element up front and
        raises before mutating anything, so a caller can fall back to
        the per-element path for exact partial-application semantics.
        Returns (total bytes, total lines queued)."""
        size = self.size
        for offset, data in writes:
            if offset < 0 or offset + len(data) > size:
                end = offset + len(data)
                raise OutOfRangeError(f"store [{offset}, {end}) outside device of {size}")
        working = self.working
        # A batch only removes from dirty, so emptiness checked once holds.
        dirty = self.dirty if self.dirty else None
        plog = self._pending_log
        total = 0
        lines = 0
        for offset, data in writes:
            end = offset + len(data)
            working[offset:end] = data
            start = offset & _LINE_MASK
            aend = (end + _LINE - 1) & _LINE_MASK
            if dirty is not None:
                dirty.remove(start, aend)
            plog.append((start, aend))
            total += end - offset
            lines += (aend - start) >> _LINE_SHIFT
        self._uw_cache = None
        return total, lines

    def nt_store_word(self, offset: int, value: int) -> None:
        """:meth:`nt_store_words` of one word."""
        self.nt_store_words(((offset, value),))

    def nt_store_words(self, words) -> None:
        """:meth:`nt_store_v` specialized for aligned 8-byte words (the
        metadata-commit pattern): one line per word, validated up front
        the same way."""
        working = self.working
        size = self.size
        for offset, _value in words:
            if offset % ATOMIC_UNIT != 0:
                raise TornWriteError(f"atomic store at unaligned offset {offset}")
            if offset < 0 or offset + 8 > size:
                raise OutOfRangeError(f"store at {offset} outside device of {size}")
        # A batch only removes from dirty, so emptiness checked once holds.
        dirty = self.dirty if self.dirty else None
        plog = self._pending_log
        for offset, value in words:
            working[offset : offset + 8] = value.to_bytes(8, "little")
            line = offset & _LINE_MASK
            if dirty is not None:
                dirty.remove(line, line + _LINE)
            plog.append((line, line + _LINE))
        self._uw_cache = None

    def atomic_store_u64(self, offset: int, value: int) -> None:
        """8-byte aligned atomic store (the only atomic unit NVM gives us)."""
        if offset % ATOMIC_UNIT != 0:
            raise TornWriteError(f"atomic store at unaligned offset {offset}")
        self.store(offset, value.to_bytes(8, "little"))

    def load(self, offset: int, length: int) -> bytes:
        end = offset + length
        if not 0 <= offset <= end <= self.size:  # a negative length too
            raise OutOfRangeError(f"load [{offset}, {end}) outside device of {self.size}")
        return bytes(self.working[offset:end])

    def load_u64(self, offset: int) -> int:
        return int.from_bytes(self.load(offset, 8), "little")

    def flush(self, offset: int, length: int) -> int:
        """clwb every cache line covering [offset, offset+length).

        Returns the number of lines flushed (for cost accounting). Clean
        lines are skipped, as clwb on a clean line is nearly free; a
        zero or negative *length* covers no line (a no-op, not an error).
        """
        if not self.dirty:
            return 0
        start = offset & _LINE_MASK
        end = (offset + length + _LINE - 1) & _LINE_MASK
        nlines = 0
        plog = self._pending_log
        for s, e in self.dirty.iter_intersect(start, end):
            plog.append((s, e))
            nlines += (e - s) >> _LINE_SHIFT
        if nlines:
            self.dirty.remove(start, end)
        return nlines

    def flush_v(self, ranges: Sequence[Tuple[int, int]]) -> List[int]:
        """One :meth:`flush` per (offset, length) range; returns the
        lines flushed per range (0 for a redundant call)."""
        return [self.flush(offset, length) for offset, length in ranges]

    def fence(self) -> None:
        """sfence: everything previously flushed becomes durable. A line
        stored again after its flush is copied as it stands — a legal
        eviction — and is still in ``dirty`` afterwards."""
        working = self.working
        durable = self.durable
        for start, end in self._pending_log:
            durable[start:end] = working[start:end]
        self._pending_log.clear()
        self._uw_cache = None

    def persist(self, offset: int, length: int) -> int:
        """flush + fence convenience; returns lines flushed."""
        nlines = self.flush(offset, length)
        self.fence()
        return nlines

    def drain(self) -> None:
        """Make the entire working image durable (orderly shutdown).
        The images differ only inside dirty or pending lines, so only
        those are copied."""
        working = self.working
        durable = self.durable
        for start, end in self._volatile_runs():
            durable[start:end] = working[start:end]
        self.dirty.clear()
        self._pending_log.clear()
        self._uw_cache = None

    # -- crash-image composition ------------------------------------------

    def _diff_words(self, start: int, end: int, words: List[int]) -> None:
        """Append offsets of words differing between working and durable
        inside [start, end), ascending. Long runs use one vectorized
        uint64 compare; short runs use the per-word loop — same output."""
        working = self.working[start:end]
        durable = self.durable[start:end]
        if end - start >= _VECTOR_SCAN_BYTES:
            diff = np.flatnonzero(np.frombuffer(working, "<u8") != np.frombuffer(durable, "<u8"))
            if len(diff):
                words.extend((start + (diff << 3)).tolist())
            return
        if working == durable:
            return
        for off in range(0, end - start, ATOMIC_UNIT):
            if working[off : off + 8] != durable[off : off + 8]:
                words.append(start + off)

    def unfenced_words(self) -> List[int]:
        """Offsets of every 8-byte word that differs between the working
        and durable images and has not been fenced.

        Memoized until the next store/fence/drain; the scan visits only
        dirty and pending lines, in ascending order.
        """
        if self._uw_cache is None:
            words: List[int] = []
            for start, end in self._volatile_runs():
                self._diff_words(start, end, words)
            self._uw_cache = words
        return list(self._uw_cache)

    def crash_image(
        self,
        persist_words: Optional[Iterable[int]] = None,
        rng: Optional[random.Random] = None,
        persist_probability: float = 0.5,
    ) -> bytes:
        """Compose a possible post-crash image.

        - With ``persist_words``, exactly those unfenced words are taken
          from the working image (for exhaustive adversarial tests).
        - Otherwise each unfenced word independently persists with
          ``persist_probability`` using ``rng`` (default: fresh RNG).

        One allocation (durable slices with the chosen words in between)
        and immutable, so a device booted from it shares it uncopied.
        """
        candidates = self.unfenced_words()
        if persist_words is not None:
            chosen = set(persist_words)
            unknown = chosen.difference(candidates)
            if unknown:
                raise OutOfRangeError(f"words {sorted(unknown)} are not unfenced")
        else:
            # analysis: allow(ambient-nondeterminism) -- exploratory default only; every replayable caller passes a seeded rng
            rng = rng or random.Random()
            chosen = choose_persist_words(candidates, rng, persist_probability)
        working, durable = self.working, self.durable
        parts = []
        pos = 0
        for off in sorted(chosen):
            parts += (durable[pos:off], working[off : off + 8])
            pos = off + 8
        parts.append(durable[pos:])
        return b"".join(parts)

    def snapshot_durable(self) -> bytes:
        """The image with *no* eviction of unfenced lines (kindest crash)."""
        return bytes(self.durable)
