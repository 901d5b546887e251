"""Paged access to one database file with transaction page tracking.

The pager holds decoded page images in DRAM. A transaction collects the
set of dirty pages plus their before-images (for rollback); how dirty
pages reach the file at commit is the journal mode's business
(:mod:`repro.db.wal` / :mod:`repro.db.engine`). An image the cache
evicts is kept, and a later miss re-adopts it only when the page it
fetches has the same bytes, so what a reader decoded from a page
outlives eviction exactly as long as those bytes do.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set

from repro.errors import DbError
from repro.fsapi.interface import FileHandle

PAGE_SIZE = 4096
DEFAULT_CACHE_PAGES = 256  # SQLite-like bounded page cache


class PageImage(bytearray):
    """One page image: its bytes plus whatever its reader decoded from
    them. ``index`` is opaque to the pager, which neither sets nor reads
    it; it lives and dies with the image."""

    index = None


class Pager:
    """The page cache of one database file.

    Invariant the B+tree leans on: a cached page image is *replaced* by
    :meth:`write` and :meth:`rollback` (a fresh :class:`PageImage` goes
    into the cache), never mutated in place. The reference :meth:`read`
    returns is therefore a stable snapshot of the page as it was at that
    call, however long the caller holds it -- a scan suspended mid-leaf
    keeps walking the image it started on while statements rewrite the
    page under it -- and what a reader hangs on ``PageImage.index`` stays
    true of those bytes with no invalidation. Callers must not write into
    an image either; that would desynchronise its ``index``.

    An evicted image is kept in ``evicted``. A miss still fetches the
    page -- that read is the modelled cost -- and re-adopts the kept
    image, ``index`` and all, only when the fetched bytes equal it; a
    page rewritten or corrupted while evicted comes back as a fresh
    image. :meth:`write`, :meth:`allocate` and :meth:`rollback` drop the
    kept image of a page they put in the cache, so a page is cached or
    kept, never both, and ``evicted`` holds at most ``page_count``
    images.
    """

    def __init__(self, handle: FileHandle, cache_pages: int = DEFAULT_CACHE_PAGES) -> None:
        self.handle = handle
        self.cache: "OrderedDict[int, PageImage]" = OrderedDict()
        #: clean images evicted from ``cache``, by page number
        self.evicted: Dict[int, PageImage] = {}
        self.cache_pages = cache_pages
        self.page_count = max(1, (handle.size + PAGE_SIZE - 1) // PAGE_SIZE)
        self.dirty: Set[int] = set()
        self.before_images: Dict[int, bytes] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: optional callable(page_no) -> bytes | None consulted on cache
        #: misses before the DB file (WAL lookup in wal mode)
        self.miss_source = None

    def _evict_if_needed(self) -> None:
        # Evict least-recently-used *clean* pages; dirty pages are pinned
        # until commit (as SQLite pins journal-pending pages).
        while len(self.cache) > self.cache_pages:
            for page_no in self.cache:
                if page_no not in self.dirty:
                    self.evicted[page_no] = self.cache.pop(page_no)
                    break
            else:
                return  # everything dirty: cannot evict

    # -- page access ---------------------------------------------------------

    def _fetch(self, page_no: int) -> bytes:
        """The latest committed image of an uncached page: the one still
        in the WAL if there is one, else the DB file's."""
        raw = self.miss_source(page_no) if self.miss_source is not None else None
        if raw is None:
            raw = self.handle.read(page_no * PAGE_SIZE, PAGE_SIZE)
        return raw.ljust(PAGE_SIZE, b"\0")

    def read(self, page_no: int) -> PageImage:
        if page_no >= self.page_count:
            raise DbError(f"page {page_no} beyond page count {self.page_count}")
        page = self.cache.get(page_no)
        if page is None:
            self.cache_misses += 1
            raw = self._fetch(page_no)
            page = self.evicted.pop(page_no, None)
            if page is None or page != raw:
                page = PageImage(raw)
            self.cache[page_no] = page
            self._evict_if_needed()
        else:
            self.cache_hits += 1
            self.cache.move_to_end(page_no)
        return page

    def write(self, page_no: int, data: bytes) -> None:
        if len(data) > PAGE_SIZE:
            raise DbError(f"page image of {len(data)} bytes > {PAGE_SIZE}")
        if page_no not in self.before_images:
            if page_no < self.page_count and page_no in self.cache:
                self.before_images[page_no] = bytes(self.cache[page_no])
            elif page_no < self.page_count:
                # Not a read: no hit/miss is counted and LRU order is untouched.
                self.before_images[page_no] = bytes(self._fetch(page_no))
            else:
                self.before_images[page_no] = b""  # fresh page
        self.evicted.pop(page_no, None)
        self.cache[page_no] = PageImage(data.ljust(PAGE_SIZE, b"\0"))
        self.cache.move_to_end(page_no)
        self.dirty.add(page_no)
        self.page_count = max(self.page_count, page_no + 1)
        self._evict_if_needed()

    def allocate(self) -> int:
        page_no = self.page_count
        self.page_count += 1
        self.evicted.pop(page_no, None)
        self.cache[page_no] = PageImage(PAGE_SIZE)
        self.dirty.add(page_no)
        self.before_images.setdefault(page_no, b"")
        self._evict_if_needed()
        return page_no

    # -- transaction support -------------------------------------------------------

    def take_dirty(self) -> Dict[int, bytes]:
        """Dirty page images for commit; clears the tx tracking."""
        out = {no: bytes(self.cache[no]) for no in sorted(self.dirty)}
        self.dirty.clear()
        self.before_images.clear()
        return out

    def rollback(self) -> None:
        """Restore before-images, dropping this transaction's changes."""
        for page_no, image in self.before_images.items():
            self.evicted.pop(page_no, None)
            if image:
                self.cache[page_no] = PageImage(image)
            else:
                self.cache.pop(page_no, None)
        if self.before_images:
            fresh = [no for no, img in self.before_images.items() if img == b""]
            if fresh:
                self.page_count = min(fresh)
        self.dirty.clear()
        self.before_images.clear()

    def flush_to_file(self, pages: Optional[Dict[int, bytes]] = None) -> None:
        """Write page images straight to the DB file (OFF-mode commit or
        WAL checkpoint); caller fsyncs."""
        if pages is None:
            pages = self.take_dirty()
        for page_no, image in pages.items():
            self.handle.write(page_no * PAGE_SIZE, image)
