"""Ext4-DAX: direct-access writes, metadata-only journaling.

The model follows the paper's characterization:

- every call crosses the kernel (syscall cost);
- data is written in place with non-temporal stores — *no* data
  journaling, so a crashed write may be partially durable (the paper's
  "only supports metadata consistency");
- ``fsync`` fences outstanding stores and commits the metadata journal
  (JBD2), which is where the Fig 7 sync penalty comes from;
- writes hold the inode lock exclusively (limited scalability, Fig 10).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import FileNotFound
from repro.fsapi.interface import FileHandle, FileSystem, OpenFlags
from repro.fsapi.volume import Inode
from repro.nvm.device import NvmDevice


class Ext4DaxFile(FileHandle):
    def __init__(self, fs: "Ext4Dax", inode: Inode) -> None:
        super().__init__(fs, inode.name)
        self.inode = inode
        self._size_dirty = False

    @property
    def size(self) -> int:
        return self.inode.size

    def write(self, offset: int, data: bytes) -> int:
        self._check_writable()
        self._check_range(offset, len(data))
        fs: Ext4Dax = self.fs  # type: ignore[assignment]
        timing = fs.timing
        with fs.op("write"):
            fs.recorder.lock(("inode", self.inode.id), "W")
            # Extent lookup in the DAX path.
            fs.recorder.compute(timing.page_cache_lookup_ns)
            # analysis: allow(unfenced-nt-store) -- DAX semantics: durability is deferred to fsync's fence by design
            fs.device.nt_store(self.inode.base + offset, data)
            if offset + len(data) > self.inode.size:
                # i_size update is metadata: DRAM now, journaled at fsync.
                fs.volume.set_size_volatile(self.inode, offset + len(data))
                self._size_dirty = True
            fs.recorder.unlock(("inode", self.inode.id))
        fs.api.writes += 1
        fs.api.bytes_written += len(data)
        return len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        fs: Ext4Dax = self.fs  # type: ignore[assignment]
        self._check_offset(offset)
        length = max(0, min(length, self.inode.size - offset))
        with fs.op("read"):
            fs.recorder.lock(("inode", self.inode.id), "R")
            fs.recorder.compute(fs.timing.page_cache_lookup_ns)
            data = fs.device.load(self.inode.base + offset, length) if length else b""
            fs.recorder.unlock(("inode", self.inode.id))
        fs.api.reads += 1
        fs.api.bytes_read += length
        return data

    def fsync(self) -> None:
        self._check_open()
        fs: Ext4Dax = self.fs  # type: ignore[assignment]
        with fs.op("fsync"):
            fs.device.fence()  # drain in-flight nt stores
            if self._size_dirty:
                fs.volume.persist_size(self.inode)
                self._size_dirty = False
            # Metadata-only JBD2 commit: one running transaction per
            # journal, so committers serialize on it.
            fs.recorder.compute(fs.timing.journal_commit_ns * 0.2)
            fs.recorder.lock(("jbd2",), "W")
            fs.recorder.compute(fs.timing.journal_commit_ns * 0.8)
            fs.device.store(fs.volume.layout.journal.start, b"\0" * 512)
            fs.device.persist(fs.volume.layout.journal.start, 512)
            fs.recorder.unlock(("jbd2",))
        fs.api.fsyncs += 1

    def mmap_view(self) -> Tuple[NvmDevice, int, int]:
        self._check_open()
        return (self.fs.device, self.inode.base, self.inode.capacity)

    def close(self) -> None:
        if not self.closed:
            self.fsync()
            super().close()
            self.fs.open_handles -= 1


class Ext4Dax(FileSystem):
    name = "Ext4-DAX"
    kernel_space = True
    consistency = "metadata"

    def create(self, name: str, capacity: int) -> Ext4DaxFile:
        inode = self.volume.create(name, capacity)
        self.open_handles += 1
        return Ext4DaxFile(self, inode)

    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> Ext4DaxFile:
        if not self.volume.exists(name):
            if flags & OpenFlags.CREAT:
                return self.create(name, 4096)
            raise FileNotFound(name)
        self.open_handles += 1
        handle = Ext4DaxFile(self, self.volume.lookup(name))
        handle.read_only = not bool(flags & OpenFlags.RDWR)
        return handle
