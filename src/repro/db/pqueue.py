"""Durable lock-free MPSC queue on raw NVM (Ben-David et al. style).

A fixed ring of slots over the :class:`~repro.nvm.device.NvmDevice`
store/flush/fence primitives, built the way the delay-free durable
structures literature builds them: every linearized operation is made
durable *before* it returns, helpers never wait on a slow peer, and
recovery is a pure function of the on-media image (the DRAM hints in the
header are untrusted accelerators).

Protocol
--------
Producers reserve monotonically increasing sequence numbers (the
simulated fetch-and-add); ``seq`` maps to slot ``(seq - 1) % nslots``.
Enqueue is two-phase so the durability point is a single 8-byte commit:

1. ``enqueue_begin``: non-temporal store of ``length || payload`` into
   the slot body, then a fence — the *data* is durable first;
2. ``enqueue_commit``: one atomic store of the commit word
   ``(seq << 32) | crc32(length || payload)`` + flush + fence — the
   linearization *and* durability point. An item is in the queue iff its
   commit word checks out.

The consumer retires an item with one atomic store of ``seq`` into the
slot's ``consumed`` word (+ flush + fence). ``sync`` mode additionally
persists the head/tail hints after every operation; ``async`` mode
leaves them stale (recovery never trusts them either way).

Recovery scans every slot, rebuilds the committed set from checksummed
commit words alone, repairs abandoned reservations (begun, never
committed) by writing ``consumed = seq`` *skip markers*, and is an
idempotent fixpoint: recovering a recovered image changes no byte.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ReproError

MAGIC = 0x50515545_55453144  # "PQUEUE1D"
HEADER_SIZE = 64
SLOT_HEADER = 24  # commit u64 | consumed u64 | length u64

_OFF_MAGIC = 0
_OFF_NSLOTS = 8
_OFF_PAYLOAD_CAP = 16
_OFF_HEAD_HINT = 24
_OFF_TAIL_HINT = 32


class QueueFullError(ReproError):
    """All slots hold live (committed, unconsumed) items."""


class QueueFormatError(ReproError):
    """The region does not carry a formatted queue."""


def _crc(length: int, payload: bytes) -> int:
    return zlib.crc32(length.to_bytes(4, "little") + payload) & 0xFFFFFFFF


def _commit_word(seq: int, length: int, payload: bytes) -> int:
    return ((seq & 0xFFFFFFFF) << 32) | _crc(length, payload)


@dataclass
class PendingEnqueue:
    """A reserved-and-durable slot awaiting its commit word."""

    seq: int
    payload: bytes


class PersistentQueue:
    """Durable MPSC ring queue over one device extent.

    ``seq`` numbers start at 1 and are capped at 2**32 - 1 (the commit
    word keeps the full sequence in its high half, so wrap-around slot
    reuse can always tell a stale commit from a live one).
    """

    def __init__(self, device, base: int, sync: bool = True) -> None:
        buffer = device.buffer
        if buffer.load_u64(base + _OFF_MAGIC) != MAGIC:
            raise QueueFormatError(f"no queue magic at offset {base}")
        self.device = device
        self.base = base
        self.sync = sync
        self.nslots = buffer.load_u64(base + _OFF_NSLOTS)
        self.payload_cap = buffer.load_u64(base + _OFF_PAYLOAD_CAP)
        self.stride = SLOT_HEADER + self.payload_cap
        #: volatile cursors; recovery rebuilds them from the slots
        self._head_seq = 1
        self._tail_seq = 1

    # -- layout ------------------------------------------------------------

    @classmethod
    def format(
        cls, device, base: int, nslots: int, payload_cap: int, sync: bool = True
    ) -> "PersistentQueue":
        """Initialize an empty queue; zeroes every slot header."""
        if payload_cap % 8:
            raise QueueFormatError("payload_cap must be a multiple of 8")
        stride = SLOT_HEADER + payload_cap
        device.store(base + _OFF_MAGIC, MAGIC.to_bytes(8, "little"))
        device.store(base + _OFF_NSLOTS, nslots.to_bytes(8, "little"))
        device.store(base + _OFF_PAYLOAD_CAP, payload_cap.to_bytes(8, "little"))
        device.store(base + _OFF_HEAD_HINT, (1).to_bytes(8, "little"))
        device.store(base + _OFF_TAIL_HINT, (1).to_bytes(8, "little"))
        for i in range(nslots):
            device.store(base + HEADER_SIZE + i * stride, b"\0" * SLOT_HEADER)
        device.persist(base, HEADER_SIZE + nslots * stride)
        return cls(device, base, sync=sync)

    def _slot(self, seq: int) -> int:
        return self.base + HEADER_SIZE + ((seq - 1) % self.nslots) * self.stride

    def _commit_valid(self, seq: int, slot: int) -> bool:
        commit = self.device.buffer.load_u64(slot)
        if commit >> 32 != seq & 0xFFFFFFFF:
            return False
        length = self.device.buffer.load_u64(slot + 16)
        if length > self.payload_cap:
            return False
        payload = self.device.buffer.load(slot + 24, length)
        return commit & 0xFFFFFFFF == _crc(length, payload)

    # -- producers ---------------------------------------------------------

    def enqueue_begin(self, payload: bytes) -> PendingEnqueue:
        """Reserve a slot and make the payload durable (phase one)."""
        if len(payload) > self.payload_cap:
            raise QueueFormatError(
                f"payload of {len(payload)} exceeds cap {self.payload_cap}"
            )
        if self._tail_seq - self._head_seq >= self.nslots:
            raise QueueFullError(f"{self.nslots} slots all live")
        seq = self._tail_seq
        self._tail_seq += 1
        slot = self._slot(seq)
        body = len(payload).to_bytes(8, "little") + payload
        self.device.nt_store(slot + 16, body)
        self.device.fence()
        return PendingEnqueue(seq=seq, payload=payload)

    def enqueue_commit(self, pending: PendingEnqueue) -> int:
        """Publish: the single-word durability + linearization point."""
        seq = pending.seq
        slot = self._slot(seq)
        self.device.atomic_store_u64(
            slot, _commit_word(seq, len(pending.payload), pending.payload)
        )
        self.device.flush(slot, 8)
        self.device.fence()
        if self.sync:
            self._persist_hints()
        return seq

    def enqueue(self, payload: bytes) -> int:
        return self.enqueue_commit(self.enqueue_begin(payload))

    # -- the (single) consumer ---------------------------------------------

    def dequeue(self) -> Optional[bytes]:
        """Pop the oldest committed item; None when the head is empty or
        still unpublished (an in-flight producer owns it)."""
        buffer = self.device.buffer
        while self._head_seq < self._tail_seq:
            seq = self._head_seq
            slot = self._slot(seq)
            if not self._commit_valid(seq, slot):
                if buffer.load_u64(slot + 8) == seq:
                    self._head_seq += 1  # recovery skip marker
                    continue
                return None  # head reserved but not yet committed
            if buffer.load_u64(slot + 8) == seq:
                self._head_seq += 1  # already consumed (pre-crash)
                continue
            length = buffer.load_u64(slot + 16)
            payload = self.device.load(slot + 24, length)
            self.device.atomic_store_u64(slot + 8, seq)
            self.device.flush(slot + 8, 8)
            self.device.fence()
            self._head_seq += 1
            if self.sync:
                self._persist_hints()
            return payload
        return None

    def live_items(self) -> List[bytes]:
        """Committed, unconsumed payloads in sequence order (read-only)."""
        buffer = self.device.buffer
        out = []
        for seq in range(self._head_seq, self._tail_seq):
            slot = self._slot(seq)
            if self._commit_valid(seq, slot) and buffer.load_u64(slot + 8) != seq:
                out.append(buffer.load(slot + 24, buffer.load_u64(slot + 16)))
        return out

    def _persist_hints(self) -> None:
        self.device.atomic_store_u64(self.base + _OFF_HEAD_HINT, self._head_seq)
        self.device.atomic_store_u64(self.base + _OFF_TAIL_HINT, self._tail_seq)
        self.device.flush(self.base + _OFF_HEAD_HINT, 16)
        self.device.fence()

    # -- recovery ----------------------------------------------------------

    @classmethod
    def recover(cls, device, base: int, sync: bool = True) -> "PersistentQueue":
        """Rebuild the queue from a (possibly crashed) image.

        Hints are ignored: the committed set comes from checksummed
        commit words, the consumed set from seq-matching consumed words.
        Reservations that never committed get durable skip markers so
        the consumer can stride over them. Idempotent by construction —
        a second pass finds nothing to repair and writes nothing.
        """
        queue = cls(device, base, sync=sync)
        buffer = device.buffer
        published = set()
        consumed = set()
        max_seq = 0
        for i in range(queue.nslots):
            slot = base + HEADER_SIZE + i * queue.stride
            commit_seq = buffer.load_u64(slot) >> 32
            if commit_seq and (commit_seq - 1) % queue.nslots == i:
                if queue._commit_valid(commit_seq, slot):
                    published.add(commit_seq)
                    max_seq = max(max_seq, commit_seq)
            cseq = buffer.load_u64(slot + 8)
            if cseq and (cseq - 1) % queue.nslots == i:
                consumed.add(cseq)
                max_seq = max(max_seq, cseq)
        tail = max_seq + 1
        live = sorted(published - consumed)
        head = live[0] if live else tail
        repaired = False
        for seq in range(head, tail):
            if seq in published or seq in consumed:
                continue
            slot = queue._slot(seq)
            device.atomic_store_u64(slot + 8, seq)
            device.flush(slot + 8, 8)
            repaired = True
        if repaired:
            device.fence()
        queue._head_seq = head
        queue._tail_seq = tail
        if sync:
            hints_ok = (
                buffer.load_u64(base + _OFF_HEAD_HINT) == head
                and buffer.load_u64(base + _OFF_TAIL_HINT) == tail
            )
            if not hints_ok:
                queue._persist_hints()
        return queue
