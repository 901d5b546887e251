"""The multi-granularity radix tree (MSL index).

Each level of the tree manages shadow logs of one granularity:
``gran(level) = leaf_size * degree**level``; level 0 holds leaves. The
conceptual root is *the file itself* (its "log" is the file extent), is
implicitly always valid, and sits at the current ``height`` — which
grows on demand when the file outgrows the covered range (§III-B1).

Persistent state per node is one 16-byte slot in the file's node table:

    +0  u64  packed metadata word (see bitmap.py) — atomic commit unit
    +8  u64  log block device offset (0 = none)

The DRAM ``Node`` objects mirror those slots and are rebuilt by scanning
the table on remount/recovery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import bitmap
from repro.core.config import MgspConfig
from repro.errors import FsError
from repro.fsapi.volume import Inode
from repro.nvm.device import NvmDevice

SLOT_SIZE = 16


class Node:
    __slots__ = ("level", "index", "start", "size", "log_off", "word", "slot_off")

    def __init__(self, level: int, index: int, size: int, slot_off: int) -> None:
        self.level = level
        self.index = index
        self.size = size
        self.start = index * size
        self.log_off = 0
        self.word = 0
        self.slot_off = slot_off

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(L{self.level}#{self.index} [{self.start},{self.start + self.size}))"


def required_table_len(capacity: int, config: MgspConfig) -> int:
    """Node-table bytes needed for a file of *capacity* bytes."""
    leaf_count = max(1, -(-capacity // config.leaf_size))
    total = 0
    count = leaf_count
    while True:
        total += count
        if count == 1:
            break
        count = -(-count // config.degree)
    total += 1  # allow one extra level above a multi-node top
    return total * SLOT_SIZE


class RadixTree:
    """DRAM mirror + persistence of one file's node slots."""

    def __init__(self, device: NvmDevice, inode: Inode, config: MgspConfig) -> None:
        self.device = device
        self.inode = inode
        self.config = config
        self.leaf_count = max(1, -(-inode.capacity // config.leaf_size))

        # Per-level node counts and slot bases, bottom-up.
        self.level_counts: List[int] = []
        count = self.leaf_count
        while True:
            self.level_counts.append(count)
            if count == 1:
                break
            count = -(-count // config.degree)
        self.level_counts.append(1)  # headroom level
        self.max_height = len(self.level_counts) - 1
        self.level_base: List[int] = []
        acc = 0
        for c in self.level_counts:
            self.level_base.append(acc)
            acc += c
        if acc * SLOT_SIZE > inode.node_table_len:
            raise FsError(
                f"{inode.name}: node table too small "
                f"({inode.node_table_len} < {acc * SLOT_SIZE})"
            )

        self.nodes: Dict[Tuple[int, int], Node] = {}
        self.gen = 0
        self.height = self._height_for(inode.size)
        #: bumped whenever the DRAM node set is rebuilt or discarded
        #: (clear_table / load_from_table) so cached Node references —
        #: e.g. the leaf fast path's ancestor chain — can be invalidated
        self.epoch = 0

    # -- geometry -----------------------------------------------------------

    def gran(self, level: int) -> int:
        return self.config.leaf_size * self.config.degree**level

    def _height_for(self, size: int) -> int:
        h = 1
        while self.gran(h) < size and h < self.max_height:
            h += 1
        return h

    def covered(self) -> int:
        """Bytes covered by the current root."""
        return self.gran(self.height)

    def slot_offset(self, level: int, index: int) -> int:
        return self.inode.node_table_off + (self.level_base[level] + index) * SLOT_SIZE

    # -- node access ------------------------------------------------------------

    def node(self, level: int, index: int) -> Node:
        key = (level, index)
        existing = self.nodes.get(key)
        if existing is not None:
            return existing
        if level > self.max_height or index >= self.level_counts[level]:
            raise FsError(f"node (L{level}, #{index}) outside tree")
        node = Node(level, index, self.gran(level), self.slot_offset(level, index))
        self.nodes[key] = node
        return node

    def peek(self, level: int, index: int) -> Optional[Node]:
        return self.nodes.get((level, index))

    @property
    def root(self) -> Node:
        return self.node(self.height, 0)

    def child_range(self, node: Node, offset: int, length: int) -> Tuple[int, int]:
        """Global child indices [first, last] touched by the range."""
        child_size = self.gran(node.level - 1)
        first = offset // child_size
        last = (offset + length - 1) // child_size
        return first, last

    # -- generations -----------------------------------------------------------------

    def next_gen(self) -> int:
        self.gen += 1
        if self.gen > bitmap.GEN_MASK:
            raise FsError("generation counter exhausted (2^24 commits on one file)")
        return self.gen

    # -- persistence -----------------------------------------------------------------

    def store_word(self, node: Node, word: int) -> None:
        """Atomic 8-byte commit of a node's metadata word (+ flush; the
        caller fences)."""
        node.word = word
        self.device.atomic_store_u64(node.slot_off, word)
        self.device.flush(node.slot_off, 8)

    def store_log_ptr(self, node: Node, log_off: int) -> None:
        node.log_off = log_off
        self.device.atomic_store_u64(node.slot_off + 8, log_off)
        self.device.flush(node.slot_off + 8, 8)

    def store_words(self, pairs) -> None:
        """Batched :meth:`store_word` of (node, word) pairs (one
        vectorized device call; the caller fences)."""
        items = []
        for node, word in pairs:
            node.word = word
            items.append((node.slot_off, word))
        if items:
            # analysis: allow(unfenced-nt-store) -- caller fences: step 4 of _write_locked ends with one fence over the batch
            self.device.store_word_v(items)

    def store_log_ptrs(self, nodes) -> None:
        """Batched :meth:`store_log_ptr` from each node's own
        ``log_off`` (already set by the planner's allocation)."""
        items = [(node.slot_off + 8, node.log_off) for node in nodes]
        if items:
            # analysis: allow(unfenced-nt-store) -- caller fences: step 4 of _write_locked ends with one fence over the batch
            self.device.store_word_v(items)

    def grow_to(self, size: int) -> List[Node]:
        """Extend the tree height until *size* is covered; returns the new
        root nodes created (their existing bits were refreshed)."""
        changed: List[Node] = []
        while self.covered() < size:
            if self.height >= self.max_height:
                raise FsError(f"{self.inode.name}: size {size} exceeds tree capacity")
            old_root = self.root
            old_bits = bitmap.effective_nonleaf(old_root.word, 0)
            self.height += 1
            new_root = self.root
            had_fresh = old_bits.existing or old_bits.valid
            word = bitmap.pack_nonleaf(
                valid=False, existing=had_fresh, sub_gen=0, own_gen=old_bits.own_gen
            )
            if word != new_root.word:
                self.store_word(new_root, word)
                changed.append(new_root)
        return changed

    # -- remount (post-crash / reopen) -----------------------------------------------

    def load_from_table(self) -> None:
        """Rebuild the DRAM mirror by scanning the persistent node table."""
        total_slots = self.level_base[-1] + self.level_counts[-1]
        raw = self.device.buffer.load(self.inode.node_table_off, total_slots * SLOT_SIZE)
        words = np.frombuffer(raw, dtype="<u8")
        nonzero = np.flatnonzero(words)
        self.epoch += 1
        max_gen = 0
        for flat in nonzero.tolist():
            slot_idx, field = divmod(flat, 2)
            level = self._level_of_slot(slot_idx)
            index = slot_idx - self.level_base[level]
            node = self.node(level, index)
            value = int(words[flat])
            if field == 0:
                node.word = value
                if level == 0:
                    max_gen = max(max_gen, bitmap.unpack_leaf(value).own_gen)
                else:
                    bits = bitmap.unpack_nonleaf(value)
                    max_gen = max(max_gen, bits.own_gen, bits.sub_gen)
            else:
                node.log_off = value
        self.gen = max_gen
        self.height = self._height_for(self.inode.size)

    def _level_of_slot(self, slot_idx: int) -> int:
        for level in range(len(self.level_base) - 1, -1, -1):
            if slot_idx >= self.level_base[level]:
                return level
        raise FsError(f"bad slot index {slot_idx}")

    def clear_table(self) -> None:
        """Zero every materialized slot (file close / end of recovery).

        Two-phase for crash safety: first the metadata words are zeroed
        and fenced, only then the log pointers. A crash between the
        phases leaves either (word live, pointer live) or (word durably
        zero, pointer irrelevant) — never a live word pointing at a
        reclaimed log. Zeroing both in one unfenced batch could persist
        the pointer's zero while the word survived, sending readers of
        the still-valid node into unrelated memory.
        """
        dirty = [node for node in self.nodes.values() if node.word or node.log_off]
        for node in dirty:
            if node.word:
                self.device.atomic_store_u64(node.slot_off, 0)
                self.device.flush(node.slot_off, 8)
        self.device.fence()
        for node in dirty:
            if node.log_off:
                self.device.atomic_store_u64(node.slot_off + 8, 0)
                self.device.flush(node.slot_off + 8, 8)
        self.device.fence()
        self.nodes.clear()
        self.epoch += 1
        self.gen = 0
        self.height = self._height_for(self.inode.size)
