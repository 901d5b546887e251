"""MGSP file handle: the write/read flows of §III-D."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import bitmap
from repro.core.config import MgspConfig
from repro.core.metalog import MAX_SLOTS
from repro.core.radix import RadixTree
from repro.core.shadowlog import ShadowLog
from repro.errors import AllocationError
from repro.fsapi.interface import FileHandle
from repro.fsapi.volume import Inode
from repro.util import align_down


def _coalesce(writes):
    """Merge adjacent device writes (e.g. sibling leaf logs allocated
    back-to-back) so they cost one media op like one large store.

    Payloads are gathered as chunk lists and joined once per merged run
    — no incremental bytearray growth, and a run of one chunk passes the
    original buffer (often a zero-copy planner slice) straight through.
    """
    if len(writes) <= 1:
        return writes
    merged = []  # [offset, end, [payload chunks]]
    for off, payload in writes:
        if merged and merged[-1][1] == off:
            last = merged[-1]
            last[1] += len(payload)
            last[2].append(payload)
        else:
            merged.append([off, off + len(payload), [payload]])
    return [
        (off, chunks[0] if len(chunks) == 1 else b"".join(chunks))
        for off, _end, chunks in merged
    ]


def _count_terminals(
    tree: RadixTree, multi_gran: bool, level: int, off: int, ln: int, budget: int, cap: int
) -> int:
    """Terminal commits [off, off+ln) needs below *level*. A plain
    function on purpose: a recursive closure is a reference cycle, and
    one over ``self`` pins handle, fs and device images until the next
    collection."""
    if budget <= 0:
        return 0
    if level == 0:
        return 1
    gran = tree.gran(level)
    if multi_gran and off % gran == 0 and ln == gran:
        return 1
    child = tree.gran(level - 1)
    total = 0
    for i in range(off // child, (off + ln - 1) // child + 1):
        lo = max(off, i * child)
        hi = min(off + ln, (i + 1) * child)
        total += _count_terminals(tree, multi_gran, level - 1, lo, hi - lo, budget - total, cap)
        if total > cap:
            return total
    return total


class MgspFile(FileHandle):
    def __init__(self, fs, inode: Inode) -> None:
        super().__init__(fs, inode.name)
        self.inode = inode
        #: open MgspTransaction, if any (plain writes are excluded while
        #: one is staged: they would plan against staged bitmap words)
        self._open_txn = None
        self.config: MgspConfig = fs.config
        self.tree = RadixTree(fs.device, inode, fs.config)
        self.shadow = ShadowLog(self.tree, fs.device, fs.logs, inode, fs.config)
        self._mst: Optional[Tuple[int, int]] = None
        self.mst_hits = 0
        self.mst_misses = 0
        #: leaf fast path: leaf_index -> (leaf, root->parent ancestors),
        #: valid only while (_lp_height, _lp_epoch) match the live tree.
        self._leaf_paths: dict = {}
        self._lp_height = -1
        self._lp_epoch = -1
        self.fast_hits = 0
        self.fast_misses = 0

    @property
    def size(self) -> int:
        return self.inode.size

    # -- geometry helpers (pure; used for lock keys and cost modelling) ------

    def _covering_node(self, offset: int, length: int) -> Tuple[int, int]:
        """Smallest single node covering [offset, offset+length)."""
        level, index = self.tree.height, 0
        while level > 0:
            child = self.tree.gran(level - 1)
            first = offset // child
            last = (offset + max(1, length) - 1) // child
            if first != last:
                break
            level -= 1
            index = first
        return (level, index)

    def _terminal_count(self, offset: int, length: int, cap: int) -> int:
        """How many terminal commits a write would need (early-exits past
        *cap*); pure geometry, mirrors the planner's decomposition."""
        return _count_terminals(
            self.tree, self.config.multi_granularity, self.tree.height, offset, length, cap + 1, cap
        )

    def _lock_path(self, covering: Tuple[int, int]) -> List[Tuple[int, int]]:
        """Ancestors from the root down to (excluding) the covering node."""
        level, index = covering
        degree = self.config.degree
        return [
            (lvl, index // degree ** (lvl - level))
            for lvl in range(self.tree.height, level, -1)
        ]

    def _mst_savings(self, offset: int, length: int) -> int:
        """Tree levels the minimum-search-tree cache skips for this op.

        The functional traversal always starts at the root (keeping
        semantics exact); the cache is modelled as a cost saving: a hit
        skips the levels above the cached subtree, the adjacent-subtree
        fallback saves one level less, a miss saves nothing.
        """
        if not self.config.min_search_tree or self._mst is None:
            return 0
        level, index = self._mst
        end = offset + max(1, length) - 1
        gran = self.tree.gran(level)
        if offset // gran == index and end // gran == index:
            self.mst_hits += 1
            return self.tree.height - level
        if offset // gran == index + 1 and end // gran == index + 1:
            self.mst_hits += 1
            return max(0, self.tree.height - level - 1)
        self.mst_misses += 1
        # Miss: two failed subtree cover checks, then a root restart.
        return -3

    def _greedy_node(self, covering: Tuple[int, int]) -> Optional[Tuple[int, int]]:
        """Greedy locking applies only while the file has one reference."""
        if not self.config.greedy_locking:
            return None
        if self.fs.handle_refs(self.inode.id) > 1:
            return None
        return covering

    # -- write (§III-D) --------------------------------------------------------

    def write(self, offset: int, data: bytes) -> int:
        self._check_writable()
        if self._open_txn is not None and self._open_txn.open:
            from repro.errors import TransactionError

            raise TransactionError(
                f"{self.inode.name}: plain write while a transaction is "
                "open (its staged state would leak into the commit)"
            )
        self._check_range(offset, len(data))
        if not data:
            return 0
        self._ensure_height(offset + len(data))
        # A write fully inside one leaf has exactly one terminal: the
        # slot budget is settled by geometry and the planner replays the
        # handle's cached root->leaf chain instead of descending. Any
        # other write (leaf_index None) is planned by descent, and one
        # needing more metadata slots than an entry holds is split into
        # independently-atomic sub-writes.
        leaf_index: Optional[int] = offset // self.config.leaf_size
        if offset + len(data) > (leaf_index + 1) * self.config.leaf_size:
            leaf_index = None
            if self._terminal_count(offset, len(data), MAX_SLOTS) > MAX_SLOTS:
                mid = align_down(offset + len(data) // 2, self.config.sub_block)
                if mid <= offset:
                    mid = offset + len(data) // 2
                self.write(offset, data[: mid - offset])
                self.write(mid, data[mid - offset :])
                return len(data)  # sub-writes already notified the flusher
        try:
            self._write_atomic(offset, data, leaf_index)
        except AllocationError:
            # Log area exhausted: reclaim it by writing the logs back
            # (the paper reclaims at close; long-running writers need it
            # online), then retry once.
            self.checkpoint()
            self._write_atomic(offset, data, leaf_index)
        flusher = self.fs.flusher
        if flusher is not None:
            flusher.note_write(self, len(data))
        return len(data)

    def _leaf_path(self, leaf_index: int):
        """Resolve (leaf, root->parent ancestor chain), cached per handle.

        Node words are always read *live* from the DRAM mirror when the
        plan is built, so the cache only guards the references: it is
        invalidated when the tree height changes (the chain gains a
        level) or when the DRAM node set is rebuilt or discarded
        (``tree.epoch``, bumped by checkpoint/close/remount).
        """
        tree = self.tree
        if tree.height != self._lp_height or tree.epoch != self._lp_epoch:
            self._leaf_paths.clear()
            self._lp_height = tree.height
            self._lp_epoch = tree.epoch
        ctx = self._leaf_paths.get(leaf_index)
        if ctx is not None:
            self.fast_hits += 1
            return ctx
        self.fast_misses += 1
        degree = self.config.degree
        ancestors = [
            tree.node(level, leaf_index // degree**level)
            for level in range(tree.height, 0, -1)
        ]
        leaf = tree.node(0, leaf_index)
        if len(self._leaf_paths) >= 1 << 16:  # bound handle memory
            self._leaf_paths.clear()
        ctx = (leaf, ancestors)
        self._leaf_paths[leaf_index] = ctx
        return ctx

    def _ensure_height(self, end: int) -> None:
        if end > self.tree.covered():
            # grow_to returns the root nodes it actually stored; a fresh
            # tree often grows by height alone (the new root word is
            # already zero), and fencing then is pure overhead.
            if self.tree.grow_to(end):
                self.fs.device.fence()

    def _write_atomic(self, offset: int, data: bytes, leaf_index: Optional[int]) -> None:
        fs = self.fs
        rec = fs.recorder
        timing = fs.timing
        thread = fs.current_thread
        obs = fs.obs
        frame = obs.span_begin("op.write") if obs.enabled else None
        # Inlined fs.op("write") bracket (hot path: no contextmanager).
        rec.begin_op("write")
        rec.compute(timing.syscall_ns if fs.kernel_space else timing.user_call_ns)
        try:
            # 1. Claim a private metadata-log entry (hash + CAS probing).
            entry = fs.metalog.claim(thread, rec)
            try:
                self._write_locked(entry, offset, data, leaf_index)
            finally:
                fs.metalog.release(entry)
        finally:
            rec.end_op()
            if frame is not None:
                # Also heals any phase frame left open by an exception.
                obs.span_end(frame)
        fs.api.writes += 1
        fs.api.bytes_written += len(data)

    def _write_locked(
        self, entry: int, offset: int, data: bytes, leaf_index: Optional[int]
    ) -> None:
        fs = self.fs
        rec = fs.recorder
        timing = fs.timing
        thread = fs.current_thread
        obs = fs.obs
        observing = obs.enabled
        gen = self.tree.next_gen()

        # 2. Plan: traverse the tree, pick log granularities, compute
        #    RMW fills (charged as reads by the device's cost recorder).
        frame = obs.span_begin("write.plan") if observing else None
        saved = self._mst_savings(offset, len(data))
        if leaf_index is not None:
            leaf, ancestors = self._leaf_path(leaf_index)
            plan = self.shadow.plan_write_fast(offset, data, gen, leaf, ancestors)
            covering = (0, leaf_index)
        else:
            plan = self.shadow.plan_write(offset, data, gen)
            covering = self._covering_node(offset, len(data))
        rec.compute(timing.tree_node_ns * max(1, plan.nodes_visited - saved))
        if frame is not None:
            obs.span_end(frame)

        # 3. Lock (MGL or greedy).
        lock_keys = fs.mgl.acquire(
            thread,
            self.inode.id,
            plan.path,
            plan.terminals,
            write=True,
            greedy_node=self._greedy_node(covering),
        )

        # 4. Eager existing-bit refreshes + fresh log pointers + data,
        #    all made durable by one fence.
        frame = obs.span_begin("write.log") if observing else None
        self.tree.store_words(plan.refreshes)
        if plan.new_logs:
            self.tree.store_log_ptrs(plan.new_logs)
            # per-size free-list pop
            rec.compute(timing.block_alloc_ns * 0.2 * len(plan.new_logs))
        if frame is not None:
            obs.span_end(frame)
            frame = obs.span_begin("write.data")
        fs.device.nt_store_v(_coalesce(plan.data_writes))
        fs.device.fence()
        if frame is not None:
            obs.span_end(frame)

        # 5. Commit point: persist the metadata-log entry.
        new_size = max(self.inode.size, offset + len(data))
        fs.metalog.write(
            entry,
            self.inode.id,
            len(data),
            gen,
            offset,
            new_size,
            [slot for _, __, slot in plan.commits],
            recorder=rec,
        )

        # 6. Apply the valid-bit words (atomic stores) + size, fence.
        frame = obs.span_begin("write.metadata") if observing else None
        self.tree.store_words([(node, word) for node, word, _slot in plan.commits])
        if new_size > self.inode.size:
            fs.volume.set_size_volatile(self.inode, new_size)
            if not self.inode.unlinked:  # freed slot may be reused; DRAM only
                fs.device.atomic_store_u64(self.inode.size_field_offset, new_size)
                fs.device.flush(self.inode.size_field_offset, 8)
        fs.device.fence()

        # 7. Retire the entry (unfenced; replay is idempotent).
        fs.metalog.retire(entry)
        if frame is not None:
            obs.span_end(frame)

        # Ablation only: without shadow logging every commit is
        # immediately checkpointed back (the classic double write).
        if plan.checkpoints:
            self._apply_checkpoints(plan)

        fs.mgl.release(lock_keys)
        if self.config.min_search_tree:
            self._mst = covering

    def _apply_checkpoints(self, plan) -> None:
        fs = self.fs
        obs = fs.obs
        frame = obs.span_begin("checkpoint.inline") if obs.enabled else None
        gen2 = self.tree.next_gen()
        cleared = set()
        for node, src, dst, length in plan.checkpoints:
            data = fs.device.load(src, length)
            limit = self.shadow._target_limit_base(dst)
            payload = data[: max(0, limit - dst)]
            if payload:
                fs.device.nt_store(dst, payload)
            if id(node) not in cleared:
                cleared.add(id(node))
                if node.level == 0:
                    word = bitmap.pack_leaf(0, gen2)
                else:
                    word = bitmap.pack_nonleaf(False, False, gen2, gen2)
                self.tree.store_word(node, word)
        fs.device.fence()
        if frame is not None:
            obs.span_end(frame)

    # -- read (§III-D) -------------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        fs = self.fs
        rec = fs.recorder
        self._check_offset(offset)
        length = max(0, min(length, self.inode.size - offset))
        with fs.op("read"):
            if length == 0:
                fs.api.reads += 1
                return b""
            covering = self._covering_node(offset, length)
            saved = self._mst_savings(offset, length)
            greedy = self._greedy_node(covering)
            lock_keys = fs.mgl.acquire(
                fs.current_thread,
                self.inode.id,
                # one coarse lock replaces the intention-lock path
                [] if greedy is not None else self._lock_path(covering),
                [covering],
                write=False,
                greedy_node=greedy,
            )
            data, visited = self.shadow.read_range(offset, length)
            rec.compute(fs.timing.tree_node_ns * max(1, visited - saved))
            fs.mgl.release(lock_keys)
            if self.config.min_search_tree:
                self._mst = covering
        fs.api.reads += 1
        fs.api.bytes_read += length
        return data

    # -- sync / close -----------------------------------------------------------------

    def fsync(self) -> None:
        """Every MGSP operation is already a synchronized atomic op, so
        fsync degenerates to a fence (the Fig 7 flat line)."""
        self._check_open()
        fs = self.fs
        with fs.op("fsync"):
            fs.device.fence()
        fs.api.fsyncs += 1

    def mmap(self, length: int = 0):
        """A failure-atomic memory-mapped view (the paper's interface)."""
        from repro.core.mmio import MgspMmap

        self._check_open()
        return MgspMmap(self, length)

    def mmap_view(self):
        self._check_open()
        return (self.fs.device, self.inode.base, self.inode.capacity)

    def checkpoint(self) -> int:
        """Online write-back: push every fresh log byte into the file and
        reclaim the log space, keeping the handle open.

        The paper reclaims log space at close; long-running applications
        can call this to bound log-area usage (each granularity's logs
        are bounded by the file size, §III-B1). Returns bytes copied.
        Crash-safe: the copy happens while the bitmap still points at
        the logs; the table reset uses atomic per-node clears after a
        fence, and a crash mid-checkpoint just recovers the logs again.
        """
        self._check_open()
        with self.fs.op("checkpoint"):
            copied = self._reclaim_logs()
            self._mst = None
        return copied

    def _reclaim_logs(self) -> int:
        """Write all logs back to the file and release log space;
        returns bytes copied."""
        fs = self.fs
        copied = self.shadow.write_back(fs.obs)
        freed = [
            (node.log_off, node.size)
            for node in self.tree.nodes.values()
            if node.log_off
        ]
        self.tree.clear_table()  # zeroes words, then pointers, durably
        for log_off, size in freed:
            fs.logs.free(log_off, size)
        fs.volume.persist_size(self.inode)
        return copied

    def close(self) -> None:
        """Write all logs back to the file and release log space."""
        if self.closed:
            return
        fs = self.fs
        with fs.op("close"):
            self._reclaim_logs()
        super().close()
        if fs.flusher is not None:
            fs.flusher.forget(self.inode.id)
        fs.release_handle(self.inode.id)
