"""SplitFS (SOSP'19) in strict mode — an extension comparator.

The paper discusses SplitFS in §II-C and §V: a split architecture where
data operations run in user space against memory-mapped *staging*
blocks and ``fsync`` performs **relink** — swinging the staged blocks
into the target file with metadata-only operations (no data copy).
Two properties the paper criticizes are modelled faithfully:

- **strict mode needs CoW**: a sub-4K write must copy the remainder of
  its block into staging (write amplification for small writes);
- **relink churns mappings**: every relinked block costs a metadata
  journal append, and remapping under an active mmap costs a TLB
  shootdown (the paper's §II-B critique of CoW-style MMIO).

Relink itself moves no data: the functional block transplant uses the
raw buffer (uncounted), matching real SplitFS where the block simply
changes owner. Consistency level is "fsync": staged writes become
visible-durable in the target file atomically at relink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import FileNotFound, FsError
from repro.fsapi.interface import FileHandle, FileSystem, OpenFlags
from repro.fsapi.volume import Inode
from repro.nvm.allocator import LogAllocator

BLOCK = 4096
RELINK_META = 48  # journal bytes per relinked block


@dataclass
class _StagedBlock:
    staging_off: int
    covered: int  # bytes valid from block start (strict CoW fills all)


class SplitfsFile(FileHandle):
    def __init__(self, fs: "Splitfs", inode: Inode) -> None:
        super().__init__(fs, inode.name)
        self.inode = inode
        self.staged: Dict[int, _StagedBlock] = {}
        self._size_dirty = False
        self.mapped = True  # MMIO-style access: relink pays shootdowns

    @property
    def size(self) -> int:
        return self.inode.size

    def _file_off(self, block_idx: int) -> int:
        return self.inode.base + block_idx * BLOCK

    def write(self, offset: int, data: bytes) -> int:
        self._check_writable()
        self._check_range(offset, len(data))
        fs: Splitfs = self.fs  # type: ignore[assignment]
        end = offset + len(data)
        with fs.op("write"):
            fs.recorder.lock(("split-stage", self.inode.id), "W")
            pos = offset
            while pos < end:
                idx = pos // BLOCK
                in_block = pos - idx * BLOCK
                take = min(BLOCK - in_block, end - pos)
                chunk = data[pos - offset : pos - offset + take]
                entry = self.staged.get(idx)
                if entry is None:
                    staging = fs.staging.alloc(BLOCK)
                    fs.recorder.compute(fs.timing.block_alloc_ns)
                    entry = _StagedBlock(staging_off=staging, covered=0)
                    self.staged[idx] = entry
                    if take < BLOCK:
                        # Strict mode: CoW the whole block into staging.
                        old = fs.device.load(self._file_off(idx), BLOCK)
                        fs.device.nt_store(staging, old)
                        entry.covered = BLOCK
                fs.device.nt_store(entry.staging_off + in_block, chunk)
                entry.covered = max(entry.covered, in_block + take)
                pos += take
            fs.device.fence()
            if end > self.inode.size:
                fs.volume.set_size_volatile(self.inode, end)
                self._size_dirty = True
            fs.recorder.unlock(("split-stage", self.inode.id))
        fs.api.writes += 1
        fs.api.bytes_written += len(data)
        return len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        fs: Splitfs = self.fs  # type: ignore[assignment]
        self._check_offset(offset)
        length = max(0, min(length, self.inode.size - offset))
        out = bytearray(length)
        with fs.op("read"):
            pos = offset
            end = offset + length
            while pos < end:
                idx = pos // BLOCK
                in_block = pos - idx * BLOCK
                take = min(BLOCK - in_block, end - pos)
                entry = self.staged.get(idx)
                if entry is not None and in_block < entry.covered:
                    src = entry.staging_off + in_block
                else:
                    src = self._file_off(idx) + in_block
                out[pos - offset : pos - offset + take] = fs.device.load(src, take)
                pos += take
        fs.api.reads += 1
        fs.api.bytes_read += length
        return bytes(out)

    def fsync(self) -> None:
        """Relink: transplant staged blocks into the file — metadata only."""
        self._check_open()
        fs: Splitfs = self.fs  # type: ignore[assignment]
        with fs.op("fsync"):
            # Relink is a kernel call even though writes were user-space.
            fs.recorder.compute(fs.timing.syscall_ns)
            fs.recorder.lock(("split-stage", self.inode.id), "W")
            for idx in sorted(self.staged):
                entry = self.staged.pop(idx)
                # Block transplant: ownership change, not a data copy.
                image = fs.device.buffer.load(entry.staging_off, BLOCK)
                file_off = self._file_off(idx)
                tail = min(BLOCK, self.inode.capacity - idx * BLOCK)
                fs.device.buffer.store(file_off, bytes(image[:tail]))
                fs.device.buffer.flush(file_off, tail)
                # Metadata journal append per relinked block.
                fs.device.nt_store(fs.meta_cursor(), b"\0" * RELINK_META)
                fs.recorder.compute(fs.timing.block_alloc_ns * 0.3)
                fs.staging.free(entry.staging_off, BLOCK)
                if self.mapped:
                    fs.recorder.compute(fs.timing.tlb_shootdown_ns)
            fs.device.fence()
            if self._size_dirty:
                fs.volume.persist_size(self.inode)
                self._size_dirty = False
            fs.recorder.unlock(("split-stage", self.inode.id))
        fs.api.fsyncs += 1

    def mmap_view(self):
        self._check_open()
        if self.staged:
            raise FsError("raw view incoherent while staged blocks exist")
        return (self.fs.device, self.inode.base, self.inode.capacity)

    def close(self) -> None:
        if not self.closed:
            self.fsync()
            super().close()
            self.fs.open_handles -= 1


class Splitfs(FileSystem):
    name = "SplitFS"
    kernel_space = False  # data path is user-space; relink pays a syscall
    consistency = "fsync"
    log_fraction = 0.40

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        area = self.volume.layout.log_area
        self.staging = LogAllocator(area.start, area.end)
        self._meta_cursor = self.volume.layout.journal.start

    def meta_cursor(self) -> int:
        off = self._meta_cursor
        self._meta_cursor += RELINK_META
        if self._meta_cursor + RELINK_META > self.volume.layout.journal.end:
            self._meta_cursor = self.volume.layout.journal.start
        return off

    def create(self, name: str, capacity: int) -> SplitfsFile:
        inode = self.volume.create(name, capacity)
        self.open_handles += 1
        return SplitfsFile(self, inode)

    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> SplitfsFile:
        if not self.volume.exists(name):
            if flags & OpenFlags.CREAT:
                return self.create(name, 4096)
            raise FileNotFound(name)
        self.open_handles += 1
        handle = SplitfsFile(self, self.volume.lookup(name))
        handle.read_only = not bool(flags & OpenFlags.RDWR)
        return handle
