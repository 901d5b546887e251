"""NOVA: log-structured, per-operation CoW atomicity (kernel space).

Model of the properties the paper measures:

- every write allocates fresh 4 KB pages, copies in any unmodified bytes
  of partially-covered pages (CoW write amplification for sub-page
  writes), persists them, commits a checksummed journal entry, then
  swings the per-page pointers in a persistent page table;
- data atomicity holds for every operation;
- ``fsync`` is nearly free (data is already durable at op return);
- writes serialize on the per-inode log (exclusive inode lock, Fig 10);
- remapping pages under an mmap costs a TLB shootdown, part of why CoW
  MMIO loses to MGSP (§II-B).

Commit protocol (per chunk of at most :data:`MAX_COMMIT_PAGES` pages)::

    1. CoW pages        nt_store × n
    2. fence            -- data durable BEFORE anything references it
    3. journal entry    nt_store (crc over seq/file/size/pointer pairs)
       fence            -- the commit point
    4. pointer swings   atomic_store_u64 + clwb per slot; size likewise
    5. fence            -- page table durable
    6. retire           atomic zero of the entry's crc word + clwb, no
                        fence (the next op's data fence, or recovery,
                        orders it; replay is idempotent)

A crash before step 3's fence leaves the old state (the entry fails its
checksum); after it, :meth:`Nova.recover` rolls the entry forward —
every pointer swing and the size update are replayed from the entry, so
partially-persisted swings of a multi-page write can never surface as a
torn mix of old and new pages. At most one checksum-valid entry is live
in any crash image: an entry's retire line is flushed at retire time and
becomes durable at the next operation's data fence, before that
operation can commit.

Journal entry layout (128 B, within the volume's journal region)::

    0   u32  crc32 over bytes [4, 40 + 16 n)
    4   u32  n               pointer pairs (1..MAX_COMMIT_PAGES)
    8   u64  seq             monotonic commit sequence
    16  u64  file_id
    24  u64  new_size
    32  u64  size_slot       device offset of the inode's size field
    40  (u64 slot, u64 ptr) × n
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.errors import FileNotFound, FsError
from repro.fsapi.interface import FileHandle, FileSystem, OpenFlags
from repro.fsapi.volume import Inode
from repro.nvm.allocator import LogAllocator

PAGE = 4096
JOURNAL_ENTRY = 128
MAX_COMMIT_PAGES = 5

_ENTRY_HEAD = struct.Struct("<IQQQQ")  # n, seq, file_id, new_size, size_slot
_ENTRY_PAIR = struct.Struct("<QQ")


class NovaFile(FileHandle):
    def __init__(self, fs: "Nova", inode: Inode) -> None:
        super().__init__(fs, inode.name)
        self.inode = inode
        #: whether an mmap is active (NOVA's atomic-mmap pays TLB churn);
        #: plain file I/O benchmarks leave this off.
        self.mapped = False
        self.npages = inode.capacity // PAGE
        if inode.node_table_len < self.npages * 8:
            raise FsError(f"{inode.name}: page table too small")
        # DRAM mirror of the persistent page table (0 = hole).
        self.page_table: List[int] = [
            fs.device.buffer.load_u64(inode.node_table_off + i * 8)
            for i in range(self.npages)
        ]

    @property
    def size(self) -> int:
        return self.inode.size

    def _ptr_slot(self, page_idx: int) -> int:
        return self.inode.node_table_off + page_idx * 8

    def write(self, offset: int, data: bytes) -> int:
        self._check_writable()
        self._check_range(offset, len(data))
        fs: Nova = self.fs  # type: ignore[assignment]
        timing = fs.timing
        end = offset + len(data)
        with fs.op("write"):
            fs.recorder.lock(("inode", self.inode.id), "W")
            total_pages = 0
            pos = offset
            while pos < end:
                # One journal commit covers at most MAX_COMMIT_PAGES
                # freshly written CoW pages (an inode-log entry's span).
                chunk = []  # (page_idx, new_off, old_off)
                while pos < end and len(chunk) < MAX_COMMIT_PAGES:
                    idx = pos // PAGE
                    in_page = pos - idx * PAGE
                    take = min(PAGE - in_page, end - pos)
                    old = self.page_table[idx]
                    new = fs.pages.alloc(PAGE)
                    fs.recorder.compute(timing.block_alloc_ns * 0.35)  # per-inode free list
                    page = bytearray(PAGE)
                    if take < PAGE and old:
                        # CoW copy-in of only the unmodified bytes.
                        if in_page:
                            page[:in_page] = fs.device.load(old, in_page)
                        tail = in_page + take
                        if tail < PAGE:
                            page[tail:] = fs.device.load(old + tail, PAGE - tail)
                    page[in_page : in_page + take] = data[pos - offset : pos - offset + take]
                    fs.device.nt_store(new, bytes(page))
                    chunk.append((idx, new, old))
                    pos += take
                fs.device.fence()  # data durable before the commit entry
                new_size = max(self.inode.size, min(end, pos))
                entry_off = fs._journal_append(self.inode, new_size, chunk)
                # Post-commit: swing the persistent page-table pointers.
                for idx, new, old in chunk:
                    self.page_table[idx] = new
                    fs.device.atomic_store_u64(self._ptr_slot(idx), new)
                    fs.device.flush(self._ptr_slot(idx), 8)
                if new_size > self.inode.size:
                    fs.volume.set_size_volatile(self.inode, new_size)
                    fs.device.atomic_store_u64(self.inode.size_field_offset, new_size)
                    fs.device.flush(self.inode.size_field_offset, 8)
                fs.device.fence()
                fs._journal_retire(entry_off)
                for _, __, old in chunk:
                    if old:
                        fs.pages.free(old, PAGE)
                total_pages += len(chunk)
            if self.mapped:
                # CoW under an active mapping: remap + TLB shootdown,
                # the §II-B cost of CoW-style atomic mmap.
                fs.recorder.compute(timing.tlb_shootdown_ns * total_pages * 0.25)
            fs.recorder.unlock(("inode", self.inode.id))
        fs.api.writes += 1
        fs.api.bytes_written += len(data)
        return len(data)

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        fs: Nova = self.fs  # type: ignore[assignment]
        self._check_offset(offset)
        length = max(0, min(length, self.inode.size - offset))
        out = bytearray(length)
        with fs.op("read"):
            pos = offset
            end = offset + length
            while pos < end:
                idx = pos // PAGE
                in_page = pos - idx * PAGE
                take = min(PAGE - in_page, end - pos)
                page_off = self.page_table[idx]
                if page_off:
                    out[pos - offset : pos - offset + take] = fs.device.load(
                        page_off + in_page, take
                    )
                pos += take
        fs.api.reads += 1
        fs.api.bytes_read += length
        return bytes(out)

    def fsync(self) -> None:
        """Data is durable per-op; fsync only fences stragglers."""
        self._check_open()
        fs: Nova = self.fs  # type: ignore[assignment]
        with fs.op("fsync"):
            fs.device.fence()
        fs.api.fsyncs += 1

    def close(self) -> None:
        if not self.closed:
            super().close()
            self.fs.open_handles -= 1


class Nova(FileSystem):
    name = "NOVA"
    kernel_space = True
    log_fraction = 0.05  # pages come from the data area instead

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        area = self.volume.layout.data_area
        self.pages = LogAllocator(area.start, area.end)
        self.log_tail = self.volume.layout.journal.start
        self._journal_seq = 1

    def create(self, name: str, capacity: int) -> NovaFile:
        npages = -(-capacity // PAGE)
        inode = self.volume.create(
            name, capacity, node_table_len=npages * 8, reserve_extent=False
        )
        self.open_handles += 1
        return NovaFile(self, inode)

    def open(self, name: str, flags: OpenFlags = OpenFlags.RDWR) -> NovaFile:
        if not self.volume.exists(name):
            if flags & OpenFlags.CREAT:
                return self.create(name, 4096)
            raise FileNotFound(name)
        self.open_handles += 1
        handle = NovaFile(self, self.volume.lookup(name))
        handle.read_only = not bool(flags & OpenFlags.RDWR)
        return handle

    # -- commit journal ----------------------------------------------------

    def _journal_append(self, inode: Inode, new_size: int, chunk) -> int:
        """Persist one checksummed commit entry; returns its offset."""
        seq = self._journal_seq
        self._journal_seq += 1
        body = _ENTRY_HEAD.pack(
            len(chunk), seq, inode.id, new_size, inode.size_field_offset
        ) + b"".join(
            _ENTRY_PAIR.pack(inode.node_table_off + idx * 8, new)
            for idx, new, _old in chunk
        )
        crc = zlib.crc32(body) & 0xFFFFFFFF
        entry = (struct.pack("<I", crc) + body).ljust(JOURNAL_ENTRY, b"\0")
        off = self.log_tail
        self.log_tail += JOURNAL_ENTRY
        if self.log_tail + JOURNAL_ENTRY > self.volume.layout.journal.end:
            self.log_tail = self.volume.layout.journal.start
        self.device.nt_store(off, entry)
        self.device.fence()  # the commit point
        return off

    def _journal_retire(self, entry_off: int) -> None:
        """Invalidate an entry (zero its crc+n word). Deliberately not
        fenced: the next operation's data fence (or recovery, which is
        idempotent either way) makes it durable."""
        self.device.atomic_store_u64(entry_off, 0)
        self.device.flush(entry_off, 8)

    def _journal_scan(self):
        """(seq, off, file_id, new_size, size_slot, pairs) for every
        checksum-valid entry, plus the max seq field seen anywhere."""
        journal = self.volume.layout.journal
        entries = []
        max_seq = 0
        for off in range(journal.start, journal.end - JOURNAL_ENTRY + 1, JOURNAL_ENTRY):
            raw = self.device.buffer.load(off, JOURNAL_ENTRY)  # untimed: mount path
            crc, n = struct.unpack_from("<II", raw)
            seq = struct.unpack_from("<Q", raw, 8)[0]
            max_seq = max(max_seq, seq)
            if not 1 <= n <= MAX_COMMIT_PAGES:
                continue
            if crc != zlib.crc32(raw[4 : 40 + 16 * n]) & 0xFFFFFFFF:
                continue
            _n, seq, fid, new_size, size_slot = _ENTRY_HEAD.unpack_from(raw, 4)
            pairs = [_ENTRY_PAIR.unpack_from(raw, 40 + 16 * i) for i in range(n)]
            entries.append((seq, off, fid, new_size, size_slot, pairs))
        return entries, max_seq

    # -- mount / recovery --------------------------------------------------

    @classmethod
    def remount(cls, device, timing=None) -> "Nova":
        """Mount an existing device image *without* journal replay (the
        clean-shutdown path; crash images go through :meth:`recover`)."""
        from repro.fsapi.volume import Volume
        from repro.fsapi.layout import VolumeLayout

        fs = cls.__new__(cls)
        FileSystem.__init__(fs, device=device, timing=timing)
        fs.volume = Volume.mount(device, VolumeLayout.for_device(device.size, log_fraction=cls.log_fraction))
        area = fs.volume.layout.data_area
        fs.pages = LogAllocator(area.start, area.end)
        # Walk page tables so reused pages are not handed out again.
        for inode in fs.volume.files():
            for i in range(inode.capacity // PAGE):
                ptr = device.buffer.load_u64(inode.node_table_off + i * 8)
                if ptr:
                    fs.pages._cursor = max(fs.pages._cursor, ptr + PAGE)
        fs.log_tail = fs.volume.layout.journal.start
        _entries, max_seq = fs._journal_scan()
        fs._journal_seq = max_seq + 1
        return fs

    @classmethod
    def recover(cls, device, timing=None) -> "Nova":
        """Crash-mount: roll every checksum-valid journal entry forward
        (seq order), retire it, and return the recovered mount.

        Replay rewrites *all* of an entry's pointer swings and its size
        from the entry body, so a crash that persisted only a subset of
        a multi-page commit still lands on the complete new state. Sizes
        never shrink (a stale entry re-replayed after its writer's retire
        word was lost must not undo a later op). Idempotent: a second
        pass finds no valid entries and writes nothing.
        """
        fs = cls.remount(device, timing=timing)
        entries, _max_seq = fs._journal_scan()
        if not entries:
            return fs
        inodes_by_id = {inode.id: inode for inode in fs.volume.files()}
        for seq, off, fid, new_size, size_slot, pairs in sorted(entries):
            inode = inodes_by_id.get(fid)
            if inode is not None and size_slot == inode.size_field_offset:
                table_end = inode.node_table_off + inode.node_table_len
                for slot, ptr in pairs:
                    if not inode.node_table_off <= slot < table_end:
                        continue  # corrupt pair; never scribble elsewhere
                    device.atomic_store_u64(slot, ptr)
                    device.flush(slot, 8)
                if new_size <= inode.capacity and device.buffer.load_u64(size_slot) < new_size:
                    device.atomic_store_u64(size_slot, new_size)
                    device.flush(size_slot, 8)
            # Entries for unlinked/unknown files are discarded, but every
            # processed entry is retired so replay converges.
            device.atomic_store_u64(off, 0)
            device.flush(off, 8)
        device.fence()
        # Pointers changed under the first mount's mirrors: remount.
        return cls.remount(device, timing=timing)
