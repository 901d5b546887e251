"""Libnvmmio: user-space hybrid undo/redo differential logging.

The model reproduces the behaviours the paper leans on:

- **user-space MMIO**: no syscall cost; data moves with load/store + clwb.
- **differential logging**: only the written bytes are logged (per-4 KB
  block log entries, each with a byte mask), so unsynced write amplification
  stays near 1 (Table II).
- **double write on sync**: ``fsync`` checkpoints every dirty log entry
  back to the file — the write-amplification ratio ~2 and the Fig 7
  collapse under frequent sync.
- **hybrid logging**: per-sync-epoch policy switch — redo when the epoch
  was write-dominant (fast writes, merging reads), undo when
  read-dominant (double-write writes, direct reads).
- **background checkpointing**: without sync, entries are drained in the
  background only under log-space pressure; those ops are recorded on a
  separate background trace whose per-block write locks conflict with
  foreground threads in the multi-thread replay (Fig 9/10).
- atomicity is only at ``fsync`` granularity:
  a crash between syncs loses (redo) or rolls back (undo) unsynced data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import FileNotFound
from repro.fsapi.interface import FileHandle, FileSystem, OpenFlags
from repro.fsapi.volume import Inode
from repro.nvm.allocator import LogAllocator
from repro.nvm.bitmap import iter_bit_runs
from repro.sim.trace import TraceRecorder

BLOCK = 4096
ENTRY_META = 64
INDEX_DEPTH = 4  # radix levels walked per block lookup


@dataclass
class LogEntry:
    log_off: int
    policy: str  # "redo" | "undo"
    logged: int = 0  # byte mask of the in-block offsets the log holds


class LibnvmmioFile(FileHandle):
    def __init__(self, fs: "Libnvmmio", inode: Inode) -> None:
        super().__init__(fs, inode.name)
        self.inode = inode
        self.entries: Dict[int, LogEntry] = {}
        self.epoch_policy = "redo"
        self.epoch_reads = 0
        self.epoch_writes = 0
        self._size_dirty = False

    @property
    def size(self) -> int:
        return self.inode.size

    # -- helpers ---------------------------------------------------------------

    def _entry(self, block_idx: int, policy: str) -> LogEntry:
        fs: Libnvmmio = self.fs  # type: ignore[assignment]
        fs.recorder.compute(fs.timing.tree_node_ns * INDEX_DEPTH)
        entry = self.entries.get(block_idx)
        if entry is None:
            log_off = fs.logs.alloc(BLOCK)
            fs.recorder.compute(fs.timing.block_alloc_ns)
            entry = LogEntry(log_off=log_off, policy=policy)
            self.entries[block_idx] = entry
        return entry

    def _file_off(self, block_idx: int) -> int:
        return self.inode.base + block_idx * BLOCK

    # -- API ---------------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> int:
        self._check_writable()
        self._check_range(offset, len(data))
        fs: Libnvmmio = self.fs  # type: ignore[assignment]
        end = offset + len(data)
        with fs.op("write"):
            fs.recorder.lock(("lib-epoch", self.inode.id), "IR")
            pos = offset
            while pos < end:
                idx = pos // BLOCK
                in_block = pos - idx * BLOCK
                take = min(BLOCK - in_block, end - pos)
                chunk = data[pos - offset : pos - offset + take]
                span = ((1 << take) - 1) << in_block
                fs.recorder.lock(("block", self.inode.id, idx), "W")
                if self.epoch_policy == "redo":
                    entry = self._entry(idx, "redo")
                    fs.device.nt_store(entry.log_off + in_block, chunk)
                    entry.logged |= span
                else:  # undo: log old data, update file in place
                    entry = self._entry(idx, "undo")
                    if entry.logged & span != span:
                        old = fs.device.load(self._file_off(idx) + in_block, take)
                        fs.device.nt_store(entry.log_off + in_block, old)
                        entry.logged |= span
                    fs.device.nt_store(self._file_off(idx) + in_block, chunk)
                # Per-entry metadata (commit record for the log write).
                fs.device.nt_store(fs.meta_cursor(), b"\0" * ENTRY_META)
                fs.recorder.unlock(("block", self.inode.id, idx))
                pos += take
            fs.device.fence()
            if end > self.inode.size:
                fs.volume.set_size_volatile(self.inode, end)
                self._size_dirty = True
            fs.recorder.unlock(("lib-epoch", self.inode.id))
        self.epoch_writes += 1
        fs.api.writes += 1
        fs.api.bytes_written += len(data)
        fs.maybe_background_checkpoint(self)
        return len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        fs: Libnvmmio = self.fs  # type: ignore[assignment]
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
                fs.recorder.lock(("block", self.inode.id, idx), "R")
                # Per-block epoch check + reader refcount (2 atomics).
                fs.recorder.compute(fs.timing.cas_ns * 2)
                entry = self.entries.get(idx)
                base = self._file_off(idx)
                chunk = bytearray(fs.device.load(base + in_block, take))
                if entry is not None and entry.policy == "redo":
                    # Overlay the logged (newer) byte ranges.
                    span = ((1 << take) - 1) << in_block
                    for s, e in iter_bit_runs(entry.logged & span):
                        logged = fs.device.load(entry.log_off + s, e - s)
                        chunk[s - in_block : e - in_block] = logged
                        fs.recorder.compute(fs.timing.dram_copy_ns(e - s))
                out[pos - offset : pos - offset + take] = chunk
                fs.recorder.unlock(("block", self.inode.id, idx))
                pos += take
        self.epoch_reads += 1
        fs.api.reads += 1
        fs.api.bytes_read += length
        return bytes(out)

    def fsync(self) -> None:
        """Checkpoint: push every dirty log entry back to the file."""
        self._check_open()
        fs: Libnvmmio = self.fs  # type: ignore[assignment]
        with fs.op("fsync"):
            # Epoch transition: sweep the per-file index, transition the
            # epoch, coordinate with the background drainer. The epoch
            # lock is exclusive: every reader/writer drains first.
            fs.recorder.lock(("lib-epoch", self.inode.id), "W")
            fs.recorder.compute(fs.timing.msync_sweep_ns)
            if self.entries:
                # No live log entries means nothing to checkpoint and
                # nothing pending (every write fenced itself), so the
                # fence would be pure overhead — e.g. the second fsync
                # of a sync-heavy run, or close() after fsync.
                self._checkpoint_all()
                fs.device.fence()
            if self._size_dirty:
                fs.volume.persist_size(self.inode)
                self._size_dirty = False
            self._choose_epoch_policy()
            fs.recorder.unlock(("lib-epoch", self.inode.id))
        fs.api.fsyncs += 1

    def _checkpoint_all(self) -> None:
        fs: Libnvmmio = self.fs  # type: ignore[assignment]
        obs = fs.obs
        frame = obs.span_begin("checkpoint.libnvmmio") if obs.enabled else None
        for idx in sorted(self.entries):
            self._checkpoint_block(idx)
        if frame is not None:
            obs.span_end(frame)

    def _checkpoint_block(self, idx: int) -> None:
        fs: Libnvmmio = self.fs  # type: ignore[assignment]
        entry = self.entries.pop(idx, None)
        if entry is None:
            return
        fs.recorder.lock(("block", self.inode.id, idx), "W")
        # Per-entry checkpoint bookkeeping: epoch check, commit-mark
        # update + flush, entry reclamation.
        fs.recorder.compute(fs.timing.msync_entry_ns)
        if entry.policy == "redo":
            for s, e in iter_bit_runs(entry.logged):
                logged = fs.device.load(entry.log_off + s, e - s)
                # analysis: allow(unfenced-nt-store) -- caller fences: fsync/_checkpoint_all issue one fence over every block
                fs.device.nt_store(self._file_off(idx) + s, logged)
        # undo entries: file already has new data; just retire the log.
        fs.logs.free(entry.log_off, BLOCK)
        fs.recorder.unlock(("block", self.inode.id, idx))

    def _choose_epoch_policy(self) -> None:
        if self.epoch_reads > self.epoch_writes:
            self.epoch_policy = "undo"
        else:
            self.epoch_policy = "redo"
        self.epoch_reads = 0
        self.epoch_writes = 0

    def mmap_view(self):
        """Raw extent view; only coherent when no log entries are live."""
        self._check_open()
        return (self.fs.device, self.inode.base, self.inode.capacity)

    def close(self) -> None:
        if not self.closed:
            self.fsync()
            super().close()
            self.fs.open_handles -= 1


class Libnvmmio(FileSystem):
    name = "Libnvmmio"
    kernel_space = False
    log_fraction = 0.45

    #: start draining in the background past this log-area utilization
    bg_pressure = 0.75

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        area = self.volume.layout.log_area
        self.logs = LogAllocator(area.start, area.end)
        self._meta_cursor = self.volume.layout.journal.start
        self.bg_recorder = TraceRecorder(self.timing)

    def meta_cursor(self) -> int:
        off = self._meta_cursor
        self._meta_cursor += ENTRY_META
        if self._meta_cursor + ENTRY_META > self.volume.layout.journal.end:
            self._meta_cursor = self.volume.layout.journal.start
        return off

    def maybe_background_checkpoint(self, handle: LibnvmmioFile) -> None:
        """Drain half the oldest entries on a background trace when the
        log area fills up; its locks contend with foreground writers."""
        if self.logs.in_use < self.bg_pressure * self.logs.capacity:
            return
        obs = self.obs
        frame = obs.span_begin("checkpoint.libnvmmio-bg") if obs.enabled else None
        self.device.reprice(self.bg_recorder)
        self.bg_recorder.begin_op("bg-checkpoint")
        try:
            victims = sorted(handle.entries)[: max(1, len(handle.entries) // 2)]
            for idx in victims:
                entry = handle.entries.pop(idx, None)
                if entry is None:
                    continue
                self.bg_recorder.lock(("block", handle.inode.id, idx), "W")
                if entry.policy == "redo":
                    for s, e in iter_bit_runs(entry.logged):
                        logged = self.device.load(entry.log_off + s, e - s)
                        self.device.nt_store(handle._file_off(idx) + s, logged)
                self.logs.free(entry.log_off, BLOCK)
                self.bg_recorder.unlock(("block", handle.inode.id, idx))
            self.device.fence()
        finally:
            self.bg_recorder.end_op()
            self.device.reprice(None)
            if frame is not None:
                obs.span_end(frame)
                obs.registry.counter("libnvmmio_bg_checkpoints_total").inc()

    def take_bg_traces(self):
        return self.bg_recorder.take_completed()

    def create(self, name: str, capacity: int) -> LibnvmmioFile:
        inode = self.volume.create(name, capacity)
        self.open_handles += 1
        return LibnvmmioFile(self, inode)

    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> LibnvmmioFile:
        if not self.volume.exists(name):
            if flags & OpenFlags.CREAT:
                return self.create(name, 4096)
            raise FileNotFound(name)
        self.open_handles += 1
        handle = LibnvmmioFile(self, self.volume.lookup(name))
        handle.read_only = not bool(flags & OpenFlags.RDWR)
        return handle
