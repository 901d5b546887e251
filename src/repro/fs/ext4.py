"""Page-cache Ext4 with the three journaling modes of Fig 1.

- ``wb`` (writeback): metadata journaled, data written back unordered.
- ``ordered``: data flushed to its home location before the metadata
  commit of the same transaction.
- ``journal``: data itself goes through the journal (written twice).

Without fsync, writes only touch the DRAM page cache — fast, volatile
(which is exactly why Fig 1's unsynced bars are tall and why a crash
loses data). ``fsync`` forces writeback of dirty pages plus a JBD2
commit per the active mode.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import FileNotFound, FsError
from repro.fsapi.interface import FileHandle, FileSystem, OpenFlags
from repro.fsapi.volume import Inode

PAGE = 4096

MODES = ("wb", "ordered", "journal")


class Ext4File(FileHandle):
    def __init__(self, fs: "Ext4", inode: Inode) -> None:
        super().__init__(fs, inode.name)
        self.inode = inode
        self.page_cache: Dict[int, bytearray] = {}
        self.dirty_pages: set = set()
        self._size_dirty = False

    @property
    def size(self) -> int:
        return self.inode.size

    # -- page-cache helpers -------------------------------------------------

    def _page(self, idx: int, populate: bool) -> bytearray:
        page = self.page_cache.get(idx)
        if page is None:
            fs: Ext4 = self.fs  # type: ignore[assignment]
            page = bytearray(PAGE)
            if populate:
                base = self.inode.base + idx * PAGE
                end = min(PAGE, max(0, self.inode.size - idx * PAGE))
                if end > 0:
                    page[:end] = fs.device.load(base, end)
                    fs.recorder.compute(fs.timing.dram_copy_ns(end))
            self.page_cache[idx] = page
        return page

    # -- API ------------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> int:
        self._check_writable()
        self._check_range(offset, len(data))
        fs: Ext4 = self.fs  # type: ignore[assignment]
        with fs.op("write"):
            fs.recorder.lock(("inode", self.inode.id), "W")
            fs.recorder.compute(fs.timing.page_cache_lookup_ns)
            fs.recorder.compute(fs.timing.dram_copy_ns(len(data)))
            pos = offset
            end = offset + len(data)
            while pos < end:
                idx = pos // PAGE
                in_page = pos - idx * PAGE
                take = min(PAGE - in_page, end - pos)
                partial = take < PAGE
                page = self._page(idx, populate=partial)
                page[in_page : in_page + take] = data[pos - offset : pos - offset + take]
                self.dirty_pages.add(idx)
                pos += take
            if end > self.inode.size:
                self.fs.volume.set_size_volatile(self.inode, end)
                self._size_dirty = True
            fs.recorder.unlock(("inode", self.inode.id))
        fs.api.writes += 1
        fs.api.bytes_written += len(data)
        return len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        fs: Ext4 = self.fs  # type: ignore[assignment]
        self._check_offset(offset)
        length = max(0, min(length, self.inode.size - offset))
        out = bytearray(length)
        with fs.op("read"):
            fs.recorder.lock(("inode", self.inode.id), "R")
            fs.recorder.compute(fs.timing.page_cache_lookup_ns)
            pos = offset
            end = offset + length
            while pos < end:
                idx = pos // PAGE
                in_page = pos - idx * PAGE
                take = min(PAGE - in_page, end - pos)
                cached = self.page_cache.get(idx)
                if cached is not None:
                    out[pos - offset : pos - offset + take] = cached[in_page : in_page + take]
                    fs.recorder.compute(fs.timing.dram_copy_ns(take))
                else:
                    out[pos - offset : pos - offset + take] = fs.device.load(
                        self.inode.base + pos, take
                    )
                pos += take
            fs.recorder.unlock(("inode", self.inode.id))
        fs.api.reads += 1
        fs.api.bytes_read += length
        return bytes(out)

    def fsync(self) -> None:
        self._check_open()
        fs: Ext4 = self.fs  # type: ignore[assignment]
        with fs.op("fsync"):
            fs.recorder.lock(("jbd2",), "W")
            journal = fs.volume.layout.journal.start
            for idx in sorted(self.dirty_pages):
                page = bytes(self.page_cache[idx])
                if fs.mode == "journal":
                    # Data block into the journal first, then checkpointed
                    # to its home location: two full writes.
                    fs.device.nt_store(journal, page)
                fs.device.nt_store(self.inode.base + idx * PAGE, page)
            fs.device.fence()
            self.dirty_pages.clear()
            if self._size_dirty:
                fs.volume.persist_size(self.inode)
                self._size_dirty = False
            # JBD2 transaction commit (metadata, plus ordering semantics;
            # only part of it holds the transaction exclusively).
            fs.recorder.compute(fs.timing.journal_commit_ns)
            fs.device.store(journal, b"\0" * 512)
            fs.device.persist(journal, 512)
            fs.recorder.unlock(("jbd2",))
        fs.api.fsyncs += 1

    def close(self) -> None:
        if not self.closed:
            self.fsync()
            super().close()
            self.fs.open_handles -= 1


class Ext4(FileSystem):
    """Non-DAX Ext4; ``mode`` selects wb / ordered / journal."""

    kernel_space = True
    consistency = "metadata"

    def __init__(self, *args, mode: str = "ordered", **kwargs) -> None:
        if mode not in MODES:
            raise FsError(f"unknown ext4 mode {mode!r}; expected one of {MODES}")
        super().__init__(*args, **kwargs)
        self.mode = mode
        self.name = f"Ext4-{mode}"

    def create(self, name: str, capacity: int) -> Ext4File:
        inode = self.volume.create(name, capacity)
        self.open_handles += 1
        return Ext4File(self, inode)

    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> Ext4File:
        if not self.volume.exists(name):
            if flags & OpenFlags.CREAT:
                return self.create(name, 4096)
            raise FileNotFound(name)
        self.open_handles += 1
        handle = Ext4File(self, self.volume.lookup(name))
        handle.read_only = not bool(flags & OpenFlags.RDWR)
        return handle
