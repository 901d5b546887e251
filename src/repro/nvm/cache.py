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
  Stores, loads and the copies between the two go through persistent
  ``memoryview``\\ s, so a store or a fence moves bytes once. A fresh
  image is a lazily zero-filled anonymous mapping, an image booted from
  content is one heap copy of it; only ``crash_image`` (a copy that
  outlives the buffer) is proportional to the provisioned size.
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


class StoreBuffer:
    """Volatile view over a durable byte image."""

    def __init__(self, size: int, image=None) -> None:
        """A fresh all-zero device of *size* bytes, or one booted from
        *image* (*size* bytes of content, copied)."""
        self.size = size
        #: ``working`` is what loads observe, ``durable`` what survives a
        #: crash (fenced). A fresh image is an anonymous mapping the
        #: kernel zero-fills page by page on first touch, so a mount
        #: costs what it writes, not what it provisions. An image booted
        #: from content is a heap copy instead: crash images are small,
        #: short-lived and built back to back, and a mapping would fault
        #: fresh pages for each one where the heap hands back hot ones.
        if image is None:
            self.working = memoryview(mmap.mmap(-1, size))
            self.durable = memoryview(mmap.mmap(-1, size))
        else:
            if len(image) != size:
                raise OutOfRangeError(f"image of {len(image)} bytes for a device of {size}")
            self.working = bytearray(image)
            self.durable = bytearray(image)
        #: persistent views every store, load and copy goes through: one
        #: pass whatever the backing (a bytearray slice on either side
        #: of an assignment materialises an intermediate copy, and so
        #: does assigning anything but a bytearray *into* one). The
        #: images never resize, so the exported buffers stay valid for
        #: the buffer's lifetime.
        self._wmv = memoryview(self.working)
        self._dmv = memoryview(self.durable)
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
        self._wmv[offset:end] = data
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
        self._wmv[offset:end] = data
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
        working = self._wmv
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
        working = self._wmv
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
        if offset < 0 or end > self.size:
            raise OutOfRangeError(f"load [{offset}, {end}) outside device of {self.size}")
        # One copy: a bytearray slice would materialise an intermediate
        # bytearray before bytes() copied it again.
        return bytes(self._wmv[offset:end])

    def load_u64(self, offset: int) -> int:
        return int.from_bytes(self.load(offset, 8), "little")

    def flush(self, offset: int, length: int) -> int:
        """clwb every cache line covering [offset, offset+length).

        Returns the number of lines flushed (for cost accounting). Clean
        lines are skipped, as clwb on a clean line is nearly free.
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
        wmv = self._wmv
        dmv = self._dmv
        for start, end in self._pending_log:
            dmv[start:end] = wmv[start:end]
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
        wmv = self._wmv
        dmv = self._dmv
        for start, end in self._volatile_runs():
            dmv[start:end] = wmv[start:end]
        self.dirty.clear()
        self._pending_log.clear()
        self._uw_cache = None

    # -- crash-image composition ------------------------------------------

    def _diff_words(self, start: int, end: int, words: List[int]) -> None:
        """Append offsets of words differing between working and durable
        inside [start, end), ascending. Long runs use one vectorized
        uint64 compare; short runs use the per-word loop — same output."""
        if end - start >= _VECTOR_SCAN_BYTES:
            n = (end - start) >> 3
            w = np.frombuffer(self.working, dtype=np.uint64, count=n, offset=start)
            d = np.frombuffer(self.durable, dtype=np.uint64, count=n, offset=start)
            diff = np.flatnonzero(w != d)
            if len(diff):
                words.extend((start + (diff << 3)).tolist())
            return
        working = self.working
        durable = self.durable
        if working[start:end] == durable[start:end]:
            return
        for off in range(start, end, ATOMIC_UNIT):
            if working[off : off + 8] != durable[off : off + 8]:
                words.append(off)

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
    ) -> bytearray:
        """Compose a possible post-crash image.

        - With ``persist_words``, exactly those unfenced words are taken
          from the working image (for exhaustive adversarial tests).
        - Otherwise each unfenced word independently persists with
          ``persist_probability`` using ``rng`` (default: fresh RNG).
        """
        image = bytearray(self.durable)
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
        for off in chosen:
            image[off : off + 8] = self.working[off : off + 8]
        return image

    def snapshot_durable(self) -> bytes:
        """The image with *no* eviction of unfenced lines (kindest crash)."""
        return bytes(self.durable)
