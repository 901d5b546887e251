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

- ``working`` — what loads observe, and the only full image. Every store
  and load is a slice read or a slice assignment on it; what backs it
  follows from how the buffer starts. A *fresh* device lives for a whole
  workload and takes millions of stores: a *private* anonymous mapping
  behind a ``memoryview``, C slices over pages the kernel hands out on
  first write (a read of an unwritten page maps the zero page; a shared
  mapping, ``mmap(-1, size)``'s default, allocates every page it reads).
  A device *booted from content* lives for one recovery (~130 device
  events, ~20 of 1,024 pages written): a :class:`PagedImage` over the
  shared immutable ``bytes``, a page lookup per slice instead of a
  whole-image heap copy — which costs fresh pages, not memcpy (glibc
  trims the freed heap top, so every copy faults its pages in again).
- ``_undo`` — ``(offset, the bytes a store overwrote)`` in store order,
  captured before each assignment. The medium differs from what loads
  see only in the stores not yet fenced (x86 + ADR), so ``durable``,
  what survives a crash, is ``working`` with this log undone newest
  entry first (a byte's oldest capture wins), and ``working`` itself
  when the log is empty. A fence that finds nothing dirty (every fence
  any workload here issues) and ``drain`` just clear it; a fence that
  finds lines still dirty keeps one entry per run of the dirty,
  unfenced lines: their durable bytes.
- ``dirty`` — the stored-not-flushed cache lines, a chunked line bitmap
  (:class:`repro.nvm.bitmap.RangeBitmap`): a bulk store is one slice
  assignment plus a few chunk-mask ORs, a small store ORs one bit.
- ``_pending_log`` — the flushed-not-fenced lines, as the raw
  line-aligned ranges ``flush`` / ``nt_store*`` queued, in issue order,
  never folded into a set on the store path.
- ``_uw_cache`` — the memoized crash-candidate scan (each run's durable
  bytes and the unfenced words), dropped by every mutation.

One invariant ties them together: **every undo entry lies inside one
coalesced run of ``dirty ∪ pending`` lines**, so every word where
``working`` and ``durable`` differ does too. A store adds its lines to
one of the two sets, a flush moves lines from the first to the second,
and a line leaves both only in ``fence`` / ``drain``, which drop its
entries. So the crash-candidate scan undoes the log over those runs,
in ascending offset order, and never looks at the rest of the image (a
run's two slices are XORed as integers and ``repro.util.nonzero_words``
lists the result's non-zero words), and ``choose_persist_words`` — one
coin per candidate, in order — yields the same subset from the same
seed whatever order the stores were issued in. Only ``crash_image``
(one ``bytes`` that outlives the buffer) is proportional to the
provisioned size.
"""

from __future__ import annotations

import mmap
import random
from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.bitmap import RangeBitmap
from repro.util import ATOMIC_UNIT, CACHE_LINE, nonzero_words

# Alignment masks (power-of-two sizes): x & _LINE_MASK == align_down,
# (x + LINE - 1) & _LINE_MASK == align_up. Inlined in the hot methods —
# these run several times per simulated write.
_LINE = CACHE_LINE
_LINE_MASK = -CACHE_LINE
_LINE_SHIFT = CACHE_LINE.bit_length() - 1

#: the crash-candidate scan XORs a run in chunks: its transient ints stay small
_SCAN_CHUNK = 1 << 16


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
        # Checked before any page is touched: a bytearray slice assigned
        # another length silently resizes the page.
        if len(data) != stop - start:
            raise ValueError(f"{len(data)} bytes assigned to a slice of {stop - start}")
        pages = self.pages
        n = start >> _PAGE_SHIFT
        if n == (stop - 1) >> _PAGE_SHIFT:  # inside one page: nearly every store
            lo = n << _PAGE_SHIFT
            page = pages.get(n)
            if page is None:
                page = pages[n] = bytearray(self.base[lo : lo + PAGE])
            page[start - lo : stop - lo] = data
            return
        for n in range(n, ((stop - 1) >> _PAGE_SHIFT) + 1):
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
        #: a private mapping zero-filled on first write, or copy-on-write
        #: pages over the content: a device costs what it writes, once
        if image is None:
            self.working = memoryview(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE))
        else:
            if len(image) != size:
                raise OutOfRangeError(f"image of {len(image)} bytes for a device of {size}")
            self.working = PagedImage(image)
        self._undo: List[Tuple[int, bytes]] = []
        self.dirty = RangeBitmap(CACHE_LINE)  # stored, not flushed
        #: flushed, not fenced: the raw line-aligned ranges in issue
        #: order, duplicates and overlaps included
        self._pending_log: List[tuple] = []
        self._uw_cache: Optional[tuple] = None

    @property
    def durable(self):
        """What survives a crash: ``working`` itself while no store is
        unfenced, else a ``bytes`` of it with the undo log undone."""
        return self.crash_image(persist_words=()) if self._undo else self.working

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

    # -- the persistence primitives ---------------------------------------

    def store(self, offset: int, data) -> None:
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"store [{offset}, {end}) outside device of {self.size}")
        working = self.working
        self._undo.append((offset, bytes(working[offset:end])))
        working[offset:end] = data
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
        working = self.working
        self._undo.append((offset, bytes(working[offset:end])))
        working[offset:end] = data
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
        undo = self._undo
        # A batch only removes from dirty, so emptiness checked once holds.
        dirty = self.dirty if self.dirty else None
        plog = self._pending_log
        total = 0
        lines = 0
        for offset, data in writes:
            end = offset + len(data)
            undo.append((offset, bytes(working[offset:end])))
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
        undo = self._undo
        # A batch only removes from dirty, so emptiness checked once holds.
        dirty = self.dirty if self.dirty else None
        plog = self._pending_log
        for offset, value in words:
            undo.append((offset, bytes(working[offset : offset + 8])))
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
        stored again after its flush is fenced as it stands — a legal
        eviction — and is still in ``dirty`` afterwards; the undo log
        keeps the durable bytes of the dirty lines not fenced."""
        if self.dirty:
            kept = RangeBitmap(CACHE_LINE)
            for start, end in self.dirty.runs():
                kept.add(start, end)
            for start, end in self._pending_log:
                kept.remove(start, end)
            starts, images, _ = self._scan()
            undo = []
            for start, end in kept.runs():
                i = bisect_right(starts, start) - 1
                undo.append((start, bytes(images[i][start - starts[i] : end - starts[i]])))
            self._undo = undo
        else:
            self._undo.clear()
        self._pending_log.clear()
        self._uw_cache = None

    def persist(self, offset: int, length: int) -> int:
        """flush + fence convenience; returns lines flushed."""
        nlines = self.flush(offset, length)
        self.fence()
        return nlines

    def drain(self) -> None:
        """Make the entire working image durable (orderly shutdown)."""
        self._undo.clear()
        self.dirty.clear()
        self._pending_log.clear()
        self._uw_cache = None

    # -- crash-image composition ------------------------------------------

    def _scan(self) -> Tuple[List[int], List[bytearray], List[int]]:
        """The starts of the coalesced runs of ``dirty ∪ pending``
        (ascending), each run's durable bytes — its ``working`` slice
        with the undo log applied newest entry first — and the offsets
        of the words where the two differ, ascending: each chunk's two
        slices XORed as little-endian integers, then the non-zero words
        of the result. Memoized until the next store/fence/drain."""
        if self._uw_cache is None:
            working = self.working
            lines = self.pending_set()
            for start, end in self.dirty.runs():
                lines.add(start, end)
            runs = list(lines.runs())
            starts = [start for start, _ in runs]
            images = [bytearray(working[start:end]) for start, end in runs]
            for offset, old in reversed(self._undo):
                if old:  # inside one run; a zero-length store marks no line
                    i = bisect_right(starts, offset) - 1
                    images[i][offset - starts[i] : offset - starts[i] + len(old)] = old
            words: List[int] = []
            for (start, end), image in zip(runs, images):
                for lo in range(start, end, _SCAN_CHUNK):
                    hi = min(lo + _SCAN_CHUNK, end)
                    diff = int.from_bytes(working[lo:hi], "little")
                    diff ^= int.from_bytes(image[lo - start : hi - start], "little")
                    if diff:
                        words += [lo + (w << 3) for w in nonzero_words(diff.to_bytes(hi - lo, "little"))]
            self._uw_cache = (starts, images, words)
        return self._uw_cache

    def unfenced_words(self) -> List[int]:
        """Offsets of every 8-byte word that differs between the working
        and durable images and has not been fenced, ascending; the scan
        visits only dirty and pending lines."""
        return list(self._scan()[2])

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

        One allocation — ``working`` slices and each run's durable bytes,
        split around the chosen words — and immutable, so a device
        booted from it shares it uncopied.
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
        working = self.working
        # a paged image's shared base as views: the join is its one copy
        span = working._pieces if isinstance(working, PagedImage) else (
            lambda a, b: (working[a:b],))
        starts, images, _ = self._scan()
        chosen = sorted(chosen)
        k = pos = 0
        parts = []
        for start, image in zip(starts, images):
            view = memoryview(image)
            parts += span(pos, start)
            pos, end = start, start + len(image)
            while k < len(chosen) and chosen[k] < end:
                off = chosen[k]
                parts += (view[pos - start : off - start], working[off : off + 8])
                pos, k = off + 8, k + 1
            parts.append(view[pos - start :])
            pos = end
        parts += span(pos, len(working))
        return b"".join(parts)

    def snapshot_durable(self) -> bytes:
        """The image with *no* eviction of unfenced lines (kindest crash)."""
        return bytes(self.durable)
