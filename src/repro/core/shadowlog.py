"""Multi-granularity Shadow Logging (MSL, §III-B).

The planner walks the radix tree (Algorithm 1) and decomposes one write
into terminal actions. At a terminal node the *shadow log role switch*
happens:

- node's log **invalid** → redo-style: new data goes into the node's own
  log; commit sets the valid bit (old data stays authoritative upstream
  until commit).
- node's log **valid** → undo-style: the node's log already holds the
  (about to be old) data, so the new data is written straight into the
  *last valid ancestor's* log (ultimately the file itself); commit
  clears the valid bit. The bytes being overwritten upstream are
  shadowed by this node's still-set valid bit, so a torn write is
  invisible.

Either way each commit is one atomic word store, and every byte of user
data is written exactly once (plus sub-block RMW fill at the edges) —
the zero-copy property of Fig 3.

Planning is side-effect-light: it may materialize DRAM nodes and
allocate log blocks, and it *reads* authoritative bytes for RMW fill,
but all stores happen later in the exact crash-safe order
(:meth:`repro.core.file.MgspFile.write`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core import bitmap
from repro.core.config import MgspConfig
from repro.core.metalog import MetaSlot
from repro.core.radix import Node, RadixTree
from repro.fsapi.volume import Inode
from repro.nvm.allocator import LogAllocator
from repro.nvm.bitmap import iter_bit_runs
from repro.nvm.device import NvmDevice
from repro.obs.spans import NULL_SINK


@dataclass
class MslStats:
    """Observability: how the multi-granularity machinery is being used."""

    redo_commits: int = 0  # data written to the node's own log
    undo_commits: int = 0  # role switch: data written into an ancestor
    coarse_commits: int = 0  # non-leaf terminal commits
    fine_commits: int = 0  # leaf commits
    sub_block_writes: int = 0  # sub-leaf granularity updates
    rmw_fill_bytes: int = 0  # bytes copied for unaligned edges
    logs_allocated: int = 0


@dataclass(slots=True)
class WritePlan:
    gen: int
    data_writes: List[Tuple[int, bytes]] = field(default_factory=list)
    commits: List[Tuple[Node, int, MetaSlot]] = field(default_factory=list)
    refreshes: List[Tuple[Node, int]] = field(default_factory=list)
    new_logs: List[Node] = field(default_factory=list)
    path: List[Tuple[int, int]] = field(default_factory=list)
    terminals: List[Tuple[int, int]] = field(default_factory=list)
    nodes_visited: int = 0
    #: shadow-logging-off ablation: (node, src_off, dst_off, length) copies
    #: performed after commit, then the node's word is cleared.
    checkpoints: List[Tuple[Node, int, int, int]] = field(default_factory=list)
    #: coarse tail-merge state (see ``ShadowLog._append_coarse``): index
    #: of the last coarse append in ``data_writes`` and the [start, end)
    #: slice of the caller's buffer it carries. Source- and
    #: target-adjacent coarse writes extend that slice in place instead
    #: of concatenating payloads later — the pairs merged here are
    #: exactly pairs ``_coalesce`` would merge anyway (target-adjacent),
    #: so the device-visible write segmentation is unchanged.
    _tail_idx: int = -1
    _tail_src_start: int = -1
    _tail_src_end: int = -1


def _ordinal(tree: RadixTree, node: Node) -> int:
    return tree.level_base[node.level] + node.index


class ShadowLog:
    """Planner + reader + write-back for one file's tree."""

    def __init__(
        self,
        tree: RadixTree,
        device: NvmDevice,
        alloc: LogAllocator,
        inode: Inode,
        config: MgspConfig,
    ) -> None:
        self.tree = tree
        self.device = device
        self.alloc = alloc
        self.inode = inode
        self.config = config
        self.stats = MslStats()

    # ------------------------------------------------------------------ write

    def plan_write(self, offset: int, data: bytes, gen: int) -> WritePlan:
        plan = WritePlan(gen=gen)
        root = self.tree.root
        self._descend_write(
            plan, root, 0, self.inode.base, 0, offset, len(data), data, offset
        )
        return plan

    def plan_write_fast(
        self, offset: int, data: bytes, gen: int, leaf: Node, ancestors
    ) -> WritePlan:
        """Plan a write fully contained in *leaf* without descending.

        *ancestors* is the leaf's ancestor chain from the root down to
        its parent (resolved once and cached by
        :class:`~repro.core.file.MgspFile`). Because a leaf-contained
        write can never fully cover a non-leaf node, the generic descent
        would visit exactly this chain and recurse into a single child
        at every level; this method replays that walk iteratively over
        the cached node references — same refreshes, same path, same
        terminal plan, none of the per-level child-range arithmetic or
        dictionary lookups.
        """
        plan = WritePlan(gen=gen)
        path_gen = 0
        last_base, last_start = self.inode.base, 0
        height = self.tree.height
        path = plan.path
        refreshes = plan.refreshes
        gen_mask = bitmap.GEN_MASK
        gen_shifted = gen << 32
        # Inlined effective_nonleaf + pack_nonleaf(existing=True): this
        # loop runs for every ancestor of every leaf-contained write.
        for node in ancestors:
            word = node.word
            if (word >> 32) & gen_mask < path_gen:
                # Entire word predates a coarse ancestor update: dead.
                valid = 0
                sub_gen = path_gen
            else:
                valid = word & 1
                sub_gen = (word >> 8) & gen_mask
                if sub_gen < path_gen:
                    sub_gen = path_gen
            new_word = valid | 2 | (sub_gen << 8) | gen_shifted
            if new_word != word:
                refreshes.append((node, new_word))
            path.append((node.level, node.index))
            if valid and node.level != height:
                last_base, last_start = node.log_off, node.start
            path_gen = sub_gen
        plan.nodes_visited = len(ancestors) + 1
        self._plan_leaf(
            plan, leaf, path_gen, last_base, last_start, offset, len(data), data, offset
        )
        plan.terminals.append((0, leaf.index))
        return plan

    def _descend_write(
        self,
        plan: WritePlan,
        node: Node,
        path_gen: int,
        last_base: int,
        last_start: int,
        off: int,
        length: int,
        data: bytes,
        data_base: int,
        durable_word=None,
    ) -> None:
        """Algorithm 1's descent. *durable_word* marks a transactional
        write (see :meth:`plan_txn_write`): its leaves are planned
        against the durable words and it never stops at a coarse
        terminal."""
        plan.nodes_visited += 1
        if node.level == 0:
            if durable_word is None:
                self._plan_leaf(plan, node, path_gen, last_base, last_start, off, length, data, data_base)
            else:
                self._plan_txn_leaf(
                    plan, node, path_gen, last_base, last_start, off, length, data, data_base, durable_word
                )
            plan.terminals.append((0, node.index))
            return

        is_root = node.level == self.tree.height and node.index == 0
        eff = bitmap.effective_nonleaf(node.word, path_gen)
        full_cover = off == node.start and length == node.size

        if full_cover and durable_word is None and self.config.multi_granularity:
            self._plan_coarse_terminal(plan, node, eff, is_root, last_base, last_start, data, data_base, off)
            plan.terminals.append((node.level, node.index))
            return

        # Not terminal: refresh the existing bit on the path (eager,
        # unlogged; recovery recomputes existing bits from valid bits).
        new_word = bitmap.pack_nonleaf(
            valid=eff.valid, existing=True, sub_gen=eff.sub_gen, own_gen=plan.gen
        )
        if new_word != node.word:
            plan.refreshes.append((node, new_word))
        plan.path.append((node.level, node.index))

        if eff.valid and not is_root:
            last_base, last_start = node.log_off, node.start
        elif is_root:
            last_base, last_start = self.inode.base, 0

        child_size = self.tree.gran(node.level - 1)
        first, last_idx = self.tree.child_range(node, off, length)
        for i in range(first, last_idx + 1):
            child_off = max(off, i * child_size)
            child_end = min(off + length, (i + 1) * child_size)
            child = self.tree.node(node.level - 1, i)
            self._descend_write(
                plan, child, eff.sub_gen, last_base, last_start,
                child_off, child_end - child_off, data, data_base, durable_word,
            )

    @staticmethod
    def _append_coarse(
        plan: WritePlan, target: int, data: bytes, src_start: int, src_end: int
    ) -> None:
        """Append a coarse payload as a zero-copy slice of the caller's
        buffer, extending the previous coarse write in place when both
        the device target and the source slice are contiguous (adjacent
        sibling terminals of one large write)."""
        dw = plan.data_writes
        if (
            plan._tail_idx == len(dw) - 1
            and plan._tail_src_end == src_start
            and dw
            and dw[-1][0] + (src_start - plan._tail_src_start) == target
        ):
            dw[-1] = (dw[-1][0], memoryview(data)[plan._tail_src_start : src_end])
            plan._tail_src_end = src_end
            return
        dw.append((target, memoryview(data)[src_start:src_end]))
        plan._tail_idx = len(dw) - 1
        plan._tail_src_start = src_start
        plan._tail_src_end = src_end

    def _plan_coarse_terminal(
        self,
        plan: WritePlan,
        node: Node,
        eff: bitmap.NonLeafBits,
        is_root: bool,
        last_base: int,
        last_start: int,
        data: bytes,
        data_base: int,
        off: int,
    ) -> None:
        src_start = off - data_base
        src_end = src_start + node.size
        ordinal = _ordinal(self.tree, node)
        shadow = self.config.shadow_logging
        valid_now = eff.valid or is_root

        if shadow and valid_now:
            # Undo-style: new data straight into the last valid ancestor
            # (for the root, "ancestor" is the file itself).
            self.stats.undo_commits += 1
            self.stats.coarse_commits += 1
            target = last_base + (off - last_start)
            limit = self._target_limit(last_base)
            if limit - target < node.size:
                src_end = src_start + max(0, limit - target)
            self._append_coarse(plan, target, data, src_start, src_end)
            word = bitmap.pack_nonleaf(False, False, plan.gen, plan.gen)
            plan.commits.append((node, word, MetaSlot(ordinal, False, False)))
            return

        # Redo-style (also the shadow-off ablation path): own log.
        self.stats.redo_commits += 1
        self.stats.coarse_commits += 1
        if node.log_off == 0:
            node.log_off = self.alloc.alloc(node.size)
            plan.new_logs.append(node)
            self.stats.logs_allocated += 1
        self._append_coarse(plan, node.log_off, data, src_start, src_end)
        word = bitmap.pack_nonleaf(True, False, plan.gen, plan.gen)
        plan.commits.append((node, word, MetaSlot(ordinal, False, True)))
        if not shadow:
            target = last_base + (off - last_start)
            plan.checkpoints.append((node, node.log_off, target, node.size))

    def _plan_leaf(
        self,
        plan: WritePlan,
        node: Node,
        path_gen: int,
        last_base: int,
        last_start: int,
        off: int,
        length: int,
        data: bytes,
        data_base: int,
    ) -> None:
        cfg = self.config
        nbits = cfg.effective_leaf_bits
        sub = cfg.leaf_size // nbits
        # Inlined effective_leaf / mask_for_range (hot path).
        word = node.word
        mask = 0 if (word >> 32) & bitmap.GEN_MASK < path_gen else word & bitmap.MASK32
        s0 = (off - node.start) // sub
        s1 = -(-(off + length - node.start) // sub)
        covered = ((1 << (s1 - s0)) - 1) << s0
        shadow = cfg.shadow_logging

        covered_mask = mask & covered
        need_leaf_log = not shadow or covered_mask != covered
        if need_leaf_log and node.log_off == 0:
            node.log_off = self.alloc.alloc(cfg.leaf_size)
            plan.new_logs.append(node)
            self.stats.logs_allocated += 1
        self.stats.fine_commits += 1
        if s1 - s0 < nbits:
            self.stats.sub_block_writes += 1

        # Slice the write by runs of sub-blocks sharing a target base:
        # under shadow logging a run is a maximal stretch of equal valid
        # bits (set -> undo into the ancestor slot, clear -> redo into
        # the own log); without it every sub-block targets the own log.
        # Adjacent runs whose targets happen to touch are then merged so
        # the emitted device writes match the per-sub-block planner
        # exactly.
        end = off + length
        stats = self.stats
        log_delta = node.log_off - node.start
        anc_delta = last_base - last_start

        pieces = []  # (target, [payload chunks])
        i = s0
        while i < s1:
            # j: one past the run of equal bits from i, clipped at s1: the
            # run is x's trailing zeros (x is ~m if bit is set; 0: no end).
            m = mask >> i
            bit = m & 1
            x = m ^ -bit
            j = i + (x & -x).bit_length() - 1 if shadow and x else s1
            if j > s1:
                j = s1
            run_start = node.start + i * sub
            run_end = node.start + j * sub
            if shadow and bit:
                stats.undo_commits += j - i
                target = run_start + anc_delta
            else:
                stats.redo_commits += j - i
                target = run_start + log_delta
            lo = off if off > run_start else run_start
            hi = end if end < run_end else run_end
            chunks = []
            # RMW fills read from the authoritative source of the edge
            # sub-block: its own log if its valid bit is set, else the
            # last valid ancestor's slot.
            if lo > run_start:  # prefix fill (first touched sub-block)
                delta = log_delta if bit else anc_delta
                chunks.append(self._read_fill(run_start, delta, lo - run_start))
                stats.rmw_fill_bytes += lo - run_start
            chunks.append(data[lo - data_base : hi - data_base])
            if hi < run_end:  # suffix fill (last touched sub-block)
                delta = log_delta if (mask >> (j - 1)) & 1 else anc_delta
                chunks.append(self._read_fill(hi, delta, run_end - hi))
                stats.rmw_fill_bytes += run_end - hi
            if pieces and pieces[-1][0] + pieces[-1][1] == target:
                prev = pieces[-1]
                prev[1] += run_end - run_start
                prev[2].extend(chunks)
            else:
                pieces.append([target, run_end - run_start, chunks])
            i = j

        for target, _plen, chunks in pieces:
            payload = chunks[0] if len(chunks) == 1 else b"".join(chunks)
            limit = self._target_limit_base(target)
            if limit - target < len(payload):
                payload = payload[: max(0, limit - target)]
            if payload:
                plan.data_writes.append((target, bytes(payload)))

        if shadow:
            new_mask = mask ^ covered
        else:
            new_mask = mask | covered
        word = bitmap.pack_leaf(new_mask, plan.gen)
        ordinal = _ordinal(self.tree, node)
        plan.commits.append((node, word, MetaSlot(ordinal, True, False, new_mask)))
        if not shadow:
            # Ablation: synchronously push every fresh sub-block back.
            for rs, re_ in iter_bit_runs(new_mask):
                src = node.log_off + rs * sub
                dst = last_base + (node.start + rs * sub - last_start)
                plan.checkpoints.append((node, src, dst, (re_ - rs) * sub))

    # -- helpers ----------------------------------------------------------------

    def _target_limit(self, base: int) -> int:
        """Writes into the file extent must not cross its capacity."""
        if base == self.inode.base:
            return self.inode.base + self.inode.capacity
        return 1 << 62

    def _target_limit_base(self, target: int) -> int:
        if self.inode.base <= target < self.inode.base + self.inode.capacity:
            return self.inode.base + self.inode.capacity
        return 1 << 62

    def _read_clipped(self, dev_off: int, length: int) -> bytes:
        """Device read clipped at the file extent end (tail sub-blocks)."""
        if self.inode.base <= dev_off < self.inode.base + self.inode.capacity:
            length = min(length, self.inode.base + self.inode.capacity - dev_off)
        data = self.device.load(dev_off, length) if length > 0 else b""
        return data.ljust(length, b"\0")

    def _read_fill(self, file_off: int, delta: int, length: int) -> bytes:
        """RMW fill for file bytes [file_off, file_off + length), read at
        device offset ``file_off + delta``. Bytes at or past EOF are zero
        whatever the device holds there: a rolled-back transaction or a
        crashed undo-style write leaves its bytes in the file extent,
        and write-back (clipped at the size) never overwrites them."""
        data = self._read_clipped(file_off + delta, length)
        keep = self.inode.size - file_off
        if keep < length:
            data = data[: max(0, keep)].ljust(length, b"\0")
        return data

    # ----------------------------------------------------------- transactions

    def plan_txn_write(
        self,
        offset: int,
        data: bytes,
        gen: int,
        durable_word,
    ) -> WritePlan:
        """Plan one write inside a multi-write transaction.

        Transactions stage bitmap words in DRAM and commit them together
        (see :mod:`repro.core.txn`), so a torn transaction must leave
        every *durably authoritative* byte untouched. The safe target
        for each sub-block is therefore fixed by the DURABLE valid bit
        (1 → the ancestor slot it shadows, 0 → the leaf's own log),
        independent of how many times the transaction rewrites it, while
        fill content and the final mask follow the STAGED state.
        ``durable_word(node)`` returns the word as it stands on media.

        Transactional writes always decompose to leaf terminals (no
        coarse-grained logs), which keeps durable path generations equal
        to staged ones.
        """
        plan = WritePlan(gen=gen)
        root = self.tree.root
        self._descend_write(
            plan, root, 0, self.inode.base, 0, offset, len(data), data, offset, durable_word
        )
        return plan

    def _plan_txn_leaf(
        self, plan, node, path_gen, last_base, last_start, off, length, data, data_base, durable_word
    ) -> None:
        cfg = self.config
        nbits = cfg.effective_leaf_bits
        sub = cfg.leaf_size // nbits
        staged = bitmap.effective_leaf(node.word, path_gen)
        durable = bitmap.effective_leaf(durable_word(node), path_gen)
        s0 = (off - node.start) // sub
        s1 = -(-(off + length - node.start) // sub)

        span = ((1 << (s1 - s0)) - 1) << s0
        need_leaf_log = (durable.mask & span) != span  # a touched bit is durably clear
        if need_leaf_log and node.log_off == 0:
            node.log_off = self.alloc.alloc(cfg.leaf_size)
            plan.new_logs.append(node)

        new_mask = staged.mask
        for i in range(s0, s1):
            d_bit = (durable.mask >> i) & 1
            s_bit = (staged.mask >> i) & 1
            bs = node.start + i * sub
            be = bs + sub
            lo, hi = max(off, bs), min(off + length, be)
            # Target fixed by the DURABLE bit: always a shadowed slot.
            if d_bit:
                target = last_base + (bs - last_start)
            else:
                target = node.log_off + (bs - node.start)
            if s_bit != d_bit:
                fill_src = target  # already written in this txn
            elif d_bit:
                fill_src = node.log_off + (bs - node.start)
            else:
                fill_src = last_base + (bs - last_start)
            keep = max(0, self._target_limit_base(target) - target)
            if lo == bs and hi == be:  # interior sub-block: the caller's bytes as they are
                payload = bytes(data[lo - data_base : lo - data_base + min(keep, sub)])
            else:
                buf = bytearray(sub)
                if lo > bs:
                    buf[: lo - bs] = self._read_fill(bs, fill_src - bs, lo - bs)
                if hi < be:
                    buf[hi - bs :] = self._read_fill(hi, fill_src - bs, be - hi)
                buf[lo - bs : hi - bs] = data[lo - data_base : hi - data_base]
                payload = bytes(buf[:keep])
            if payload:
                plan.data_writes.append((target, payload))
            # Final staged bit: the opposite side of the durable one.
            if d_bit:
                new_mask &= ~(1 << i)
            else:
                new_mask |= 1 << i

        word = bitmap.pack_leaf(new_mask, plan.gen)
        ordinal = _ordinal(self.tree, node)
        plan.commits.append((node, word, MetaSlot(ordinal, True, False, new_mask)))

    # ------------------------------------------------------------------- read

    def read_range(self, offset: int, length: int) -> Tuple[bytes, int]:
        """Assemble the latest bytes; returns (data, nodes_visited).

        One depth-first walk from the root in file-offset order, one
        device load per source: a child that was never materialised or a
        non-leaf without its existing bit serves its whole span from the
        last valid ancestor, and a leaf serves each run of equal valid
        bits from its own log (set) or that ancestor (clear). Children
        are looked up, never created. Every source lies in a log block
        or in the file extent below the size, so no load is clipped.
        """
        tree = self.tree
        root = tree.root
        if length <= 0:
            return b"", 0
        nodes = tree.nodes
        gran = tree.gran
        load = self.device.load
        gen_mask = bitmap.GEN_MASK
        mask32 = bitmap.MASK32
        sub = self.config.leaf_size // self.config.effective_leaf_bits
        chunks = []
        visited = 0
        # Spans still to read, last first: (node or None, path_gen,
        # last valid base, its start, off, end). The walk descends into
        # the first child in place and parks the later ones here.
        stack = [(root, 0, self.inode.base, 0, offset, offset + length)]
        while stack:
            node, path_gen, last_base, last_start, off, end = stack.pop()
            while True:
                if node is None:
                    chunks.append(load(last_base + (off - last_start), end - off))
                    break
                visited += 1
                word = node.word
                level = node.level
                if level == 0:
                    mask = 0 if (word >> 32) & gen_mask < path_gen else word & mask32
                    start = node.start
                    log_delta = node.log_off - start
                    anc_delta = last_base - last_start
                    i = (off - start) // sub
                    last = (end - 1 - start) // sub
                    while True:
                        # j: the last sub-block of the run of equal bits
                        # from i, by trailing ones / trailing zeros.
                        m = mask >> i
                        if m & 1:
                            j = i + (m ^ (m + 1)).bit_length() - 2
                            delta = log_delta
                        else:
                            j = i + (m & -m).bit_length() - 2 if m else last
                            delta = anc_delta
                        if j >= last:
                            break
                        i = j + 1
                        run_end = start + i * sub
                        chunks.append(load(off + delta, run_end - off))
                        off = run_end
                    chunks.append(load(off + delta, end - off))
                    break
                # Inlined effective_nonleaf: a word older than the path
                # generation predates a coarse ancestor commit (dead).
                if (word >> 32) & gen_mask < path_gen:
                    valid = existing = 0
                else:
                    valid = word & 1
                    existing = word & 2
                    sub_gen = (word >> 8) & gen_mask
                    if sub_gen > path_gen:
                        path_gen = sub_gen
                if valid and node is not root:  # the root's "log" is the file
                    last_base, last_start = node.log_off, node.start
                if not existing:
                    chunks.append(load(last_base + (off - last_start), end - off))
                    break
                level -= 1
                child_size = gran(level)
                first = off // child_size
                hi = end
                for i in range((end - 1) // child_size, first, -1):
                    lo = i * child_size
                    stack.append((nodes.get((level, i)), path_gen, last_base, last_start, lo, hi))
                    hi = lo
                end = hi
                node = nodes.get((level, first))
        return b"".join(chunks), visited

    # -------------------------------------------------------------- write-back

    def write_back(self, obs=NULL_SINK) -> int:
        """Copy every fresh log byte into the file (close / recovery).

        Parent-before-child order: deeper (fresher) content overwrites.
        All copies read from log blocks and write into the file extent
        (disjoint regions), so the stores are gathered and issued as one
        scatter-gather batch. Returns the number of bytes copied; *obs*
        is the caller's telemetry sink (``fs.obs`` at call time).
        """
        frame = obs.span_begin("checkpoint.writeback") if obs.enabled else None
        limit = min(self.tree.covered(), self.inode.size)
        writes: List[Tuple[int, bytes]] = []
        self._wb_rec(self.tree.root, 0, 0, limit, writes)
        if writes:
            self.device.nt_store_v(writes)
        self.device.fence()
        copied = sum(len(data) for _, data in writes)
        if frame is not None:
            obs.span_end(frame)
            obs.registry.counter("checkpoint_bytes_total").inc(copied)
        return copied

    def _wb_rec(
        self, node: Optional[Node], path_gen: int, off: int, end: int, writes: List
    ) -> None:
        if node is None or off >= end:
            return
        if node.level == 0:
            cfg = self.config
            nbits = cfg.effective_leaf_bits
            sub = cfg.leaf_size // nbits
            eff = bitmap.effective_leaf(node.word, path_gen)
            for rs, re_ in iter_bit_runs(eff.mask):
                lo = max(off, node.start + rs * sub)
                hi = min(end, node.start + re_ * sub)
                if lo < hi:
                    data = self.device.load(node.log_off + (lo - node.start), hi - lo)
                    writes.append((self.inode.base + lo, data))
            return

        is_root = node.level == self.tree.height and node.index == 0
        eff = bitmap.effective_nonleaf(node.word, path_gen)
        if eff.valid and not is_root:
            lo, hi = max(off, node.start), min(end, node.start + node.size)
            if lo < hi:
                data = self.device.load(node.log_off + (lo - node.start), hi - lo)
                writes.append((self.inode.base + lo, data))
        if eff.existing or is_root:
            lo, hi = max(off, node.start), min(end, node.start + node.size)
            if lo < hi:
                first, last_idx = self.tree.child_range(node, lo, hi - lo)
                for i in range(first, last_idx + 1):
                    child = self.tree.peek(node.level - 1, i)
                    self._wb_rec(child, eff.sub_gen, lo, hi, writes)
