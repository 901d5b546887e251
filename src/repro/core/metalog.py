"""Lock-free metadata log (§III-C1).

A small NVM region holds fixed 128-byte entries. A thread claims the
entry at ``hash(thread id) % N``, linear-probing past busy slots with
CAS. One entry describes one in-flight write whose plan commits at most
``MAX_SLOTS`` (12) nodes; a larger write, like a transaction, commits as
a chain (:meth:`MetadataLog.write_chain`): ``TXN_MEMBER`` entries closed
by one ``TXN_MEMBER | TXN_COMMIT`` entry, its single commit point.

    +0   u32  checksum (crc32 of bytes [4, 32 + 8*nslots))
    +4   u16  file id
    +6   u16  nslots
    +8   u32  length          (0 = retired; cleared with an atomic store)
    +12  u32  generation G stamped on every committed word
    +16  u64  file offset
    +24  u64  new file size
    +32  nslots x 8 B slots:
            u32  ordinal | LEAF<<28 | VALID<<29
            u32  new leaf mask (leaf slots only)

Only valid-bit changes are logged; existing bits are recomputed from
valid bits during recovery (the paper's "existing bits can be recovered
from the valid bits"). When ``nslots <= 3`` the entry fits in 64 bytes
and only that half is flushed (the paper's partial-flush optimization).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import FsError
from repro.fsapi.layout import Region
from repro.nvm.device import NvmDevice
from repro.obs.spans import NULL_SINK
from repro.util import checksum as crc

ENTRY_SIZE = 128
#: entries in the metadata-log area (paper: 4 KB area -> 32 x 128 B entries)
METALOG_ENTRIES = 32
HEADER = struct.Struct("<IHHII Q Q")  # checksum, file_id, nslots, length, gen, offset, file_size
MAX_SLOTS = (ENTRY_SIZE - HEADER.size) // 8
SLOT = struct.Struct("<II")

_ORD_MASK = (1 << 28) - 1
_LEAF_FLAG = 1 << 28
_VALID_FLAG = 1 << 29

# Chained entries (transactions and writes of more than MAX_SLOTS
# slots; see MetadataLog.write_chain): the nslots u16 carries flags in
# its top bits, and for chain entries the offset field holds the chain's
# transaction id.
TXN_MEMBER = 1 << 15
TXN_COMMIT = 1 << 14
_NSLOTS_MASK = (1 << 14) - 1


@dataclass(frozen=True)
class MetaSlot:
    """One committed node word, in recoverable form."""

    ordinal: int
    is_leaf: bool
    valid: bool  # non-leaf commits: the new valid bit
    leaf_mask: int = 0

    def pack(self) -> bytes:
        word = self.ordinal & _ORD_MASK
        if self.is_leaf:
            word |= _LEAF_FLAG
        if self.valid:
            word |= _VALID_FLAG
        return SLOT.pack(word, self.leaf_mask & 0xFFFFFFFF)

    @classmethod
    def unpack(cls, raw: bytes) -> "MetaSlot":
        word, mask = SLOT.unpack(raw)
        return cls(
            ordinal=word & _ORD_MASK,
            is_leaf=bool(word & _LEAF_FLAG),
            valid=bool(word & _VALID_FLAG),
            leaf_mask=mask,
        )


@dataclass
class MetaEntry:
    index: int
    file_id: int
    length: int
    gen: int
    offset: int
    file_size: int
    slots: List[MetaSlot]
    flags: int = 0

    @property
    def is_txn_member(self) -> bool:
        return bool(self.flags & TXN_MEMBER)

    @property
    def is_txn_commit(self) -> bool:
        return bool(self.flags & TXN_COMMIT)

    @property
    def txn_id(self) -> int:
        return self.offset  # transaction entries reuse the offset field


def decode_entry(idx: int, raw: bytes) -> Optional[MetaEntry]:
    """The live entry in the ``ENTRY_SIZE`` bytes of slot *idx*; None
    when it is retired or torn."""
    digest, file_id, nslots_field, length, gen, offset, file_size = HEADER.unpack(
        raw[: HEADER.size]
    )
    nslots = nslots_field & _NSLOTS_MASK
    flags = nslots_field & ~_NSLOTS_MASK
    if length == 0 or nslots > MAX_SLOTS:
        return None
    body_end = HEADER.size + nslots * 8
    if crc(raw[4:body_end]) != digest:
        return None  # torn entry: the write never committed
    slots = [
        MetaSlot.unpack(raw[HEADER.size + i * 8 : HEADER.size + (i + 1) * 8])
        for i in range(nslots)
    ]
    return MetaEntry(
        index=idx,
        file_id=file_id,
        length=length,
        gen=gen,
        offset=offset,
        file_size=file_size,
        slots=slots,
        flags=flags,
    )


class MetadataLog:
    """The per-mount metadata-log region."""

    #: telemetry sink (attach_telemetry replaces it per-instance)
    obs = NULL_SINK

    def __init__(self, device: NvmDevice, region: Region, entries: int = METALOG_ENTRIES) -> None:
        if entries * ENTRY_SIZE > region.size:
            raise FsError(f"metalog region too small for {entries} entries")
        self.device = device
        self.region = region
        self.entries = entries
        self._in_use: Dict[int, int] = {}  # entry index -> owning thread
        # (sink, its metalog_commits_total counter), resolved at the first commit
        self._commit_meter = (NULL_SINK, None)

    def entry_offset(self, index: int) -> int:
        return self.region.start + index * ENTRY_SIZE

    # -- claim / release (lock-free via hash + CAS in the real system) -------

    def claim(self, thread_id: int, recorder=None) -> int:
        if recorder is not None:
            recorder.compute(recorder.timing.hash_ns)
        start = hash(thread_id) % self.entries
        for probe in range(self.entries):
            idx = (start + probe) % self.entries
            if recorder is not None:
                recorder.compute(recorder.timing.cas_ns)
            if idx not in self._in_use:
                self._in_use[idx] = thread_id
                return idx
        raise FsError("metadata log full: more concurrent writers than entries")

    def release(self, index: int) -> None:
        self._in_use.pop(index, None)

    # -- write / retire ---------------------------------------------------------

    def write(
        self,
        index: int,
        file_id: int,
        length: int,
        gen: int,
        offset: int,
        file_size: int,
        slots: List[MetaSlot],
        flags: int = 0,
        recorder=None,
    ) -> None:
        """Persist one entry: a write op's commit point, or one link of
        a chain. *recorder* is charged the marshalling cost."""
        if len(slots) > MAX_SLOTS:
            raise FsError(f"write needs {len(slots)} metadata slots > {MAX_SLOTS}")
        obs = self.obs
        frame = obs.span_begin("metalog.commit") if obs.enabled else None
        nslots_field = len(slots) | flags
        body = bytearray(HEADER.pack(0, file_id, nslots_field, length, gen, offset, file_size))
        for slot in slots:
            body += slot.pack()
        # Patch the checksum in place instead of re-packing the header.
        struct.pack_into("<I", body, 0, crc(memoryview(body)[4:]))
        # Partial-flush optimization: small entries persist only 64 bytes.
        flush_len = 64 if len(slots) <= 3 else ENTRY_SIZE
        if len(body) < flush_len:
            body += bytes(flush_len - len(body))
        off = self.entry_offset(index)
        if recorder is not None:
            # Entry marshalling + checksum computation.
            recorder.compute(100.0)
        self.device.nt_store(off, body)
        self.device.fence()
        if frame is not None:
            obs.span_end(frame)
            meter = self._commit_meter
            if meter[0] is not obs:
                meter = self._commit_meter = (obs, obs.registry.counter("metalog_commits_total"))
            meter[1].value += 1.0

    def write_chain(
        self,
        entries: List[int],
        txn_id: int,
        file_id: int,
        length: int,
        gen: int,
        file_size: int,
        slots: List[MetaSlot],
        recorder=None,
    ) -> None:
        """Persist *slots* as one chain: ``TXN_MEMBER`` entries of up to
        ``MAX_SLOTS`` slots each, the last flagged ``TXN_MEMBER |
        TXN_COMMIT``. That last entry is the chain's one commit point;
        recovery applies the members only when it is present.

        The chain's first entries are those already in *entries* (a
        write's own claimed entry); each further one is claimed just
        before it is written, keyed ``txn_id + position`` (integers: the
        slot must not depend on PYTHONHASHSEED), and appended, so the
        caller's ``finally`` releases exactly what was claimed. A chain
        longer than the free entries raises before anything is written."""
        nchunks = max(1, -(-len(slots) // MAX_SLOTS))
        free = self.entries - len(self._in_use)
        if nchunks - len(entries) > free:
            raise FsError(f"a {len(slots)}-slot chain needs {nchunks} metadata-log entries, "
                          f"{len(entries) + free} available")
        for pos in range(nchunks):
            if pos == len(entries):
                entries.append(self.claim(txn_id + pos, recorder))
            self.write(
                entries[pos], file_id, length, gen, txn_id, file_size,
                slots[pos * MAX_SLOTS : (pos + 1) * MAX_SLOTS],
                flags=TXN_MEMBER | TXN_COMMIT if pos == nchunks - 1 else TXN_MEMBER,
                recorder=recorder,
            )

    def retire_chain(self, entries: List[int]) -> None:
        """Retire a write's entries, a chain's commit entry first:
        without it the members are orphans and recovery discards them."""
        for idx in reversed(entries):
            self.retire(idx)

    def retire(self, index: int) -> None:
        """Mark the entry outdated (length=0). Deliberately unfenced: a
        replay of an already-applied entry is idempotent."""
        off = self.entry_offset(index)
        # analysis: allow(unfenced-nt-store) -- deliberately unfenced (§III-C1): replaying a retired entry is idempotent
        self.device.store_word_v(((off + 8, 0),))  # clears length + gen

    # -- recovery scan ---------------------------------------------------------------

    def scan(self) -> List[MetaEntry]:
        """Return every un-retired, checksum-valid entry (recovery path)."""
        found: List[MetaEntry] = []
        # One untimed read of the whole area (mount path), then per entry.
        raw = self.device.buffer.load(self.entry_offset(0), self.entries * ENTRY_SIZE)
        for idx in range(self.entries):
            entry = decode_entry(idx, raw[idx * ENTRY_SIZE : (idx + 1) * ENTRY_SIZE])
            if entry is not None:
                found.append(entry)
        return found
