"""Failure-atomic multi-write transactions.

The paper's §IV-D closes with: *"although MGSP provides file-system-
level atomicity, it does not have a transaction-level atomic mechanism.
We hope to add related designs in future work so that existing database
software can obtain corresponding performance gains without
modification."* This module implements that future work.

Protocol
--------
Writes inside a transaction persist their data into shadow logs
immediately, but the bitmap words are only *staged* in DRAM — the
durable bitmap keeps pointing at the pre-transaction data, so a crash
before commit rolls the whole group back for free. Safe write targets
are chosen against the durable bitmap (see
:meth:`~repro.core.shadowlog.ShadowLog.plan_txn_write`).

Commit chains the staged words through the lock-free metadata log
(:meth:`~repro.core.metalog.MetadataLog.write_chain`, the chain a plain
write of more than 12 slots also commits through): member entries
(flag ``TXN_MEMBER``) carry up to 12 slots each and a final entry
flagged ``TXN_MEMBER | TXN_COMMIT`` is the atomic commit point.
Recovery applies a transaction's entries only when its commit entry is
present; orphaned member entries are retired unapplied
(:func:`repro.core.recovery.recover`).

Usage::

    txn = fs.begin_transaction(handle)
    txn.write(0, b"account A debit")
    txn.write(9000, b"account B credit")
    txn.commit()          # both or neither, even across crashes
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core import bitmap
from repro.core.metalog import MAX_SLOTS, MetaSlot
from repro.errors import TransactionError


class MgspTransaction:
    """One open transaction over a single :class:`MgspFile`."""

    def __init__(self, fs, handle) -> None:
        if getattr(handle, "_open_txn", None) is not None and handle._open_txn.open:
            raise TransactionError(f"{handle.name} already has an open transaction")
        self.fs = fs
        self.handle = handle
        handle._open_txn = self
        self.open = True
        self.writes = 0
        self._durable_words: Dict[Tuple[int, int], int] = {}  # node key -> media word
        self._slots: Dict[Tuple[int, int], MetaSlot] = {}
        self._staged: Dict[Tuple[int, int], object] = {}  # node key -> Node
        self._txn_logs: List = []  # nodes whose log block this txn allocated
        self._locks: List[Hashable] = []
        self._orig_size = handle.inode.size
        self._new_size = handle.inode.size

    # -- write path ----------------------------------------------------------

    def _durable_word(self, node) -> int:
        return self._durable_words.get((node.level, node.index), node.word)

    def write(self, offset: int, data: bytes) -> int:
        if not self.open:
            raise TransactionError("transaction is closed")
        if not data:
            return 0
        handle = self.handle
        fs = self.fs
        handle._check_writable()
        handle._check_range(offset, len(data))
        with fs.op("txn-write"):
            handle._ensure_height(offset + len(data))
            gen = handle.tree.next_gen()
            plan = handle.shadow.plan_txn_write(offset, data, gen, self._durable_word)
            rec = fs.recorder
            rec.compute(fs.timing.tree_node_ns * max(1, plan.nodes_visited))

            # Two-phase locking: terminals stay locked until commit,
            # acquired in index order (the same deadlock-avoidance
            # discipline as MglLockManager.acquire).
            for level, index in sorted(plan.terminals, key=lambda t: t[1]):
                key = fs.mgl.node_key(handle.inode.id, level, index)
                if key not in self._locks:
                    rec.lock(key, "W")
                    self._locks.append(key)

            handle.tree.store_words(plan.refreshes)
            handle.tree.store_log_ptrs(plan.new_logs)
            self._txn_logs.extend(plan.new_logs)
            # One store per sub-block (no coalescing): the txn stream
            # stays the one the per-element loop issued.
            fs.device.nt_store_v(plan.data_writes)
            fs.device.fence()

            # Stage the bitmap words: DRAM only until commit.
            for node, word, slot in plan.commits:
                key = (node.level, node.index)
                self._durable_words.setdefault(key, node.word)
                node.word = word
                self._slots[key] = slot
                self._staged[key] = node
            self._new_size = max(self._new_size, offset + len(data))
            if self._new_size > handle.inode.size:
                # Stage the size too (DRAM only) so in-txn reads see it;
                # the durable size is written at commit.
                fs.volume.set_size_volatile(handle.inode, self._new_size)
        self.writes += 1
        fs.api.writes += 1
        fs.api.bytes_written += len(data)
        return len(data)

    def read(self, offset: int, length: int) -> bytes:
        """Reads inside the transaction see its own staged writes."""
        return self.handle.read(offset, length)

    # -- resolution -------------------------------------------------------------

    def commit(self) -> None:
        if not self.open:
            raise TransactionError("transaction is closed")
        fs = self.fs
        handle = self.handle
        with fs.op("txn-commit"), fs.obs.span("txn.commit"):
            slots = list(self._slots.values())
            needed = -(-len(slots) // MAX_SLOTS)
            if needed >= fs.metalog.entries:
                raise TransactionError(
                    f"transaction too large: needs {needed} metadata entries"
                )
            entries: List[int] = []
            try:
                fs.metalog.write_chain(
                    entries, fs.next_txn_id(), handle.inode.id, max(1, self.writes),
                    handle.tree.gen, self._new_size, slots, recorder=fs.recorder,
                )

                # Apply the staged words durably, then the size (the DRAM
                # size was staged at write time; persist it now).
                handle.tree.store_words((node, node.word) for node in self._staged.values())
                if self._new_size > self._orig_size:
                    fs.volume.set_size_volatile(handle.inode, self._new_size)
                    if not handle.inode.unlinked:  # slot may be reused
                        fs.device.atomic_store_u64(
                            handle.inode.size_field_offset, self._new_size
                        )
                        fs.device.flush(handle.inode.size_field_offset, 8)
                fs.device.fence()

                fs.metalog.retire_chain(entries)
            finally:
                for idx in entries:
                    fs.metalog.release(idx)
            for key in self._locks:
                fs.recorder.unlock(key)
        if fs.obs.enabled:
            fs.obs.registry.counter("txn_commits_total").inc()
        self._finish()

    def rollback(self) -> None:
        if not self.open:
            raise TransactionError("transaction is closed")
        fs = self.fs
        handle = self.handle
        with fs.op("txn-rollback"), fs.obs.span("txn.rollback"):
            # Restore the staged size, but never below what plain writes
            # committed while this transaction was open (the durable
            # size field is monotone).
            committed_size = (
                0  # slot may belong to another file now; trust the mirror
                if handle.inode.unlinked
                else fs.device.buffer.load_u64(handle.inode.size_field_offset)
            )
            fs.volume.set_size_volatile(
                handle.inode, max(self._orig_size, committed_size)
            )
            for key, node in self._staged.items():
                node.word = self._durable_words[key]
            freed = []
            for node in self._txn_logs:
                # Only reclaim logs that are not referenced by the
                # (restored) durable state.
                if not self._node_log_live(node):
                    fs.logs.free(node.log_off, node.size)
                    node.log_off = 0
                    freed.append(node)
            if freed:
                handle.tree.store_log_ptrs(freed)
                # Only the pointer-zeroing needs ordering; the staged
                # words were DRAM-only and every txn write already
                # fenced its own data, so a rollback that freed nothing
                # has nothing pending and would fence for free.
                fs.device.fence()
            for key in self._locks:
                fs.recorder.unlock(key)
        if fs.obs.enabled:
            fs.obs.registry.counter("txn_rollbacks_total").inc()
        self._finish()

    def _node_log_live(self, node) -> bool:
        if node.level == 0:
            return bitmap.unpack_leaf(node.word).mask != 0
        return bitmap.unpack_nonleaf(node.word).valid

    def _finish(self) -> None:
        self.open = False
        self.handle._open_txn = None
        self._staged.clear()
        self._slots.clear()
        self._durable_words.clear()
        self._txn_logs.clear()
        self._locks.clear()

    # -- context manager: commit on success, roll back on exception -------------

    def __enter__(self) -> "MgspTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.open:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
