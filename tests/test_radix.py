"""Radix tree geometry, persistence, growth, remount scanning."""

from __future__ import annotations

import pytest

from repro.core import bitmap
from repro.core.config import MgspConfig
from repro.core.radix import RadixTree, required_table_len, SLOT_SIZE
from repro.errors import FsError
from repro.fsapi.volume import Volume
from repro.nvm.device import NvmDevice


def make_tree(capacity=1 << 20, degree=16, device_size=32 << 20):
    device = NvmDevice(device_size)
    volume = Volume(device)
    config = MgspConfig(degree=degree)
    inode = volume.create("f", capacity, node_table_len=required_table_len(capacity, config))
    return RadixTree(device, inode, config), inode, device


class TestGeometry:
    def test_gran_per_level(self):
        tree, _, _ = make_tree(degree=16)
        assert tree.gran(0) == 4096
        assert tree.gran(1) == 4096 * 16
        assert tree.gran(2) == 4096 * 256

    def test_level_counts_cover_capacity(self):
        tree, inode, _ = make_tree(capacity=1 << 20, degree=16)
        assert tree.leaf_count == (1 << 20) // 4096
        assert tree.level_counts[0] == tree.leaf_count
        assert tree.level_counts[-1] == 1

    def test_required_table_len_enough(self):
        config = MgspConfig(degree=16)
        total = sum
        needed = required_table_len(1 << 20, config)
        # One slot per node on every level, 16 bytes each.
        assert needed >= (256 + 16 + 1 + 1) * SLOT_SIZE

    def test_node_start_and_size(self):
        tree, _, _ = make_tree(degree=16)
        node = tree.node(1, 3)
        assert node.size == 4096 * 16
        assert node.start == 3 * node.size

    def test_node_out_of_range(self):
        tree, _, _ = make_tree(degree=16)
        with pytest.raises(FsError):
            tree.node(0, 10**9)
        with pytest.raises(FsError):
            tree.node(99, 0)

    def test_child_range(self):
        tree, _, _ = make_tree(degree=16)
        parent = tree.node(1, 0)
        first, last = tree.child_range(parent, 0, 4096)
        assert (first, last) == (0, 0)
        first, last = tree.child_range(parent, 4096, 8192)
        assert (first, last) == (1, 2)

    def test_peek_does_not_materialize(self):
        tree, _, _ = make_tree()
        assert tree.peek(0, 5) is None
        tree.node(0, 5)
        assert tree.peek(0, 5) is not None

    def test_slots_unique(self):
        tree, _, _ = make_tree(capacity=1 << 20, degree=16)
        seen = set()
        for level, count in enumerate(tree.level_counts):
            for index in range(count):
                off = tree.slot_offset(level, index)
                assert off not in seen
                seen.add(off)


class TestHeight:
    def test_initial_height_covers_size(self):
        tree, inode, _ = make_tree(capacity=1 << 20, degree=16)
        assert tree.covered() >= inode.size
        assert tree.height >= 1

    def test_grow_to(self):
        tree, _, _ = make_tree(capacity=1 << 20, degree=4)
        h0 = tree.height
        tree.grow_to(1 << 20)
        assert tree.covered() >= 1 << 20
        assert tree.height > h0

    def test_grow_beyond_capacity_rejected(self):
        tree, _, _ = make_tree(capacity=64 << 10, degree=4)
        with pytest.raises(FsError):
            tree.grow_to(1 << 30)

    def test_grow_preserves_existing_freshness(self):
        tree, _, device = make_tree(capacity=1 << 20, degree=4)
        old_root = tree.root
        tree.store_word(old_root, bitmap.pack_nonleaf(False, True, 0, 1))
        device.fence()
        changed = tree.grow_to(tree.covered() + 1)
        new_root = tree.root
        assert new_root.level == old_root.level + 1
        eff = bitmap.effective_nonleaf(new_root.word, 0)
        assert eff.existing  # fresh descendants remain reachable
        assert changed and changed[0] is new_root


class TestGenerations:
    def test_monotone(self):
        tree, _, _ = make_tree()
        a, b = tree.next_gen(), tree.next_gen()
        assert b == a + 1

    def test_exhaustion_raises(self):
        tree, _, _ = make_tree()
        tree.gen = bitmap.GEN_MASK
        with pytest.raises(FsError):
            tree.next_gen()


class TestPersistence:
    def test_store_word_roundtrip(self):
        tree, _, device = make_tree()
        node = tree.node(0, 7)
        word = bitmap.pack_leaf(0xABCD, 3)
        tree.store_word(node, word)
        device.fence()
        assert device.buffer.load_u64(node.slot_off) == word
        assert node.word == word

    def test_store_log_ptr_roundtrip(self):
        tree, _, device = make_tree()
        node = tree.node(1, 2)
        tree.store_log_ptr(node, 0x10000)
        device.fence()
        assert device.buffer.load_u64(node.slot_off + 8) == 0x10000

    def test_load_from_table_rebuilds(self):
        tree, inode, device = make_tree()
        leaf = tree.node(0, 3)
        mid = tree.node(1, 0)
        tree.store_word(leaf, bitmap.pack_leaf(0xF, 5))
        tree.store_log_ptr(leaf, 0x20000)
        tree.store_word(mid, bitmap.pack_nonleaf(True, True, 4, 5))
        device.fence()
        device.drain()

        fresh = RadixTree(device, inode, tree.config)
        fresh.load_from_table()
        assert fresh.peek(0, 3).word == bitmap.pack_leaf(0xF, 5)
        assert fresh.peek(0, 3).log_off == 0x20000
        assert fresh.peek(1, 0).word == bitmap.pack_nonleaf(True, True, 4, 5)
        assert fresh.gen == 5  # max gen observed

    def test_clear_table_zeroes(self):
        tree, inode, device = make_tree()
        node = tree.node(0, 1)
        tree.store_word(node, bitmap.pack_leaf(1, 1))
        tree.store_log_ptr(node, 0x3000)
        tree.clear_table()
        fresh = RadixTree(device, inode, tree.config)
        fresh.load_from_table()
        assert fresh.nodes == {}
        assert fresh.gen == 0
