"""ShadowLog planner invariants: zero-copy, role switching, assembly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitmap
from repro.core.config import MgspConfig
from repro.core.radix import RadixTree, required_table_len
from repro.core.shadowlog import ShadowLog, WritePlan
from repro.fsapi.volume import Volume
from repro.nvm.allocator import LogAllocator
from repro.nvm.device import NvmDevice


def make_shadow(capacity=1 << 20, degree=16, **cfg):
    device = NvmDevice(32 << 20)
    volume = Volume(device)
    config = MgspConfig(degree=degree, **cfg)
    inode = volume.create("f", capacity, node_table_len=required_table_len(capacity, config))
    volume.set_size(inode, capacity)
    tree = RadixTree(device, inode, config)
    area = volume.layout.log_area
    alloc = LogAllocator(area.start, area.end)
    return ShadowLog(tree, device, alloc, inode, config), tree, device, inode


def apply_plan(shadow, plan):
    """Execute a plan the way MgspFile does (data, then commits)."""
    for node, word in plan.refreshes:
        shadow.tree.store_word(node, word)
    for node in plan.new_logs:
        shadow.tree.store_log_ptr(node, node.log_off)
    for off, payload in plan.data_writes:
        shadow.device.nt_store(off, payload)
    for node, word, _slot in plan.commits:
        shadow.tree.store_word(node, word)
    shadow.device.fence()


def write(shadow, offset, data):
    gen = shadow.tree.next_gen()
    plan = shadow.plan_write(offset, data, gen)
    apply_plan(shadow, plan)
    return plan


class TestZeroCopy:
    def test_aligned_write_moves_each_byte_once(self):
        shadow, _, _, _ = make_shadow()
        plan = write(shadow, 0, b"a" * 4096)
        assert sum(len(p) for _, p in plan.data_writes) == 4096

    def test_repeated_writes_alternate_targets(self):
        """Write the same leaf twice: first redo (to the leaf log), then
        undo-style (into the ancestor) — Fig 3's role switch."""
        shadow, tree, _, inode = make_shadow()
        p1 = write(shadow, 0, b"a" * 4096)
        p2 = write(shadow, 0, b"b" * 4096)
        (t1, _), (t2, _) = p1.data_writes[0], p2.data_writes[0]
        leaf = tree.peek(0, 0)
        assert t1 == leaf.log_off  # redo: into the leaf's log
        assert t2 == inode.base  # undo: straight into the file
        # Two writes, two block writes total: zero copy.
        assert sum(len(p) for _, p in p1.data_writes + p2.data_writes) == 8192

    def test_third_write_back_to_log(self):
        shadow, tree, _, _ = make_shadow()
        write(shadow, 0, b"a" * 4096)
        write(shadow, 0, b"b" * 4096)
        p3 = write(shadow, 0, b"c" * 4096)
        leaf = tree.peek(0, 0)
        assert p3.data_writes[0][0] == leaf.log_off

    def test_coarse_write_uses_one_log(self):
        shadow, tree, _, _ = make_shadow(degree=16)
        plan = write(shadow, 0, b"x" * (4096 * 16))  # exactly one L1 node
        assert len(plan.commits) == 1
        node, word, slot = plan.commits[0]
        assert node.level == 1
        assert not slot.is_leaf

    def test_multi_granularity_off_decomposes_to_leaves(self):
        shadow, _, _, _ = make_shadow(multi_granularity=False)
        plan = write(shadow, 0, b"x" * (4096 * 16))
        assert all(node.level == 0 for node, _, __ in plan.commits)
        assert len(plan.commits) == 16

    def test_sub_block_write_is_fine_grained(self):
        shadow, _, _, _ = make_shadow()
        plan = write(shadow, 0, b"x" * 128)  # one sub-block
        assert sum(len(p) for _, p in plan.data_writes) == 128

    def test_unaligned_write_rmw_bounded_by_sub_blocks(self):
        shadow, _, _, _ = make_shadow()
        plan = write(shadow, 100, b"x" * 20)  # inside sub-block 0
        assert sum(len(p) for _, p in plan.data_writes) == 128
        plan = write(shadow, 100, b"x" * 50)  # spans sub-blocks 0 and 1
        assert sum(len(p) for _, p in plan.data_writes) == 256

    def test_fine_grained_off_rounds_to_leaf(self):
        shadow, _, _, _ = make_shadow(fine_grained_logging=False)
        plan = write(shadow, 0, b"x" * 128)
        assert sum(len(p) for _, p in plan.data_writes) == 4096


class TestBitmapCommits:
    def test_leaf_mask_flips(self):
        shadow, tree, _, _ = make_shadow()
        write(shadow, 0, b"a" * 128)  # sub-block 0 -> leaf log
        leaf = tree.peek(0, 0)
        assert bitmap.unpack_leaf(leaf.word).mask == 0b1
        write(shadow, 0, b"b" * 128)  # role switch -> ancestor
        assert bitmap.unpack_leaf(leaf.word).mask == 0b0
        write(shadow, 128, b"c" * 128)
        assert bitmap.unpack_leaf(leaf.word).mask == 0b10

    def test_existing_bits_set_on_path(self):
        shadow, tree, _, _ = make_shadow()
        write(shadow, 0, b"a" * 4096)
        root = tree.root
        eff = bitmap.effective_nonleaf(root.word, 0)
        assert eff.existing

    def test_coarse_commit_invalidates_subtree_lazily(self):
        shadow, tree, _, _ = make_shadow(degree=16)
        write(shadow, 0, b"a" * 128)  # fine write materializes leaf 0
        leaf = tree.peek(0, 0)
        assert bitmap.effective_leaf(leaf.word, 0).mask == 0b1
        write(shadow, 0, b"b" * (4096 * 16))  # coarse write over it
        l1 = tree.peek(1, 0)
        sub_gen = bitmap.unpack_nonleaf(l1.word).sub_gen
        # The leaf's word was NOT touched (lazy), but it reads as dead.
        assert bitmap.unpack_leaf(leaf.word).mask == 0b1
        assert bitmap.effective_leaf(leaf.word, sub_gen).mask == 0


class TestReadAssembly:
    def test_reads_compose_all_sources(self):
        shadow, _, device, inode = make_shadow()
        device.buffer.store(inode.base, bytes(range(256)) * 16)  # base data
        device.buffer.drain()
        write(shadow, 100, b"\xaa" * 300)
        data, _ = shadow.read_range(0, 4096)
        expected = bytearray((bytes(range(256)) * 16)[:4096])
        expected[100:400] = b"\xaa" * 300
        assert data == bytes(expected)

    def test_read_beyond_writes_returns_zeros(self):
        shadow, _, _, _ = make_shadow()
        data, _ = shadow.read_range(8192, 100)
        assert data == b"\0" * 100

    def test_visits_counted(self):
        shadow, _, _, _ = make_shadow()
        write(shadow, 0, b"a" * 4096)
        _, visited = shadow.read_range(0, 4096)
        assert visited >= 2  # root + leaf at least


class TestWriteBack:
    def test_write_back_materializes_file(self):
        shadow, tree, device, inode = make_shadow()
        write(shadow, 0, b"a" * 4096)
        write(shadow, 10000, b"b" * 500)
        copied = shadow.write_back()
        assert copied > 0
        raw = device.buffer.load(inode.base, 11000)
        assert raw[:4096] == b"a" * 4096
        assert raw[10000:10500] == b"b" * 500

    def test_write_back_respects_freshness_order(self):
        shadow, tree, device, inode = make_shadow(degree=16)
        write(shadow, 0, b"old" * 1365 + b"x")  # fills ~4K
        write(shadow, 0, b"x" * (4096 * 16))  # coarse overwrite
        write(shadow, 0, b"new" + b"y" * 125)  # fine overwrite of 128B
        shadow.write_back()
        raw = device.buffer.load(inode.base, 4096)
        assert raw[:3] == b"new"
        assert raw[128:4096] == b"x" * (4096 - 128)

    def test_write_back_nothing_to_do(self):
        shadow, _, _, _ = make_shadow()
        assert shadow.write_back() == 0


class TestShadowOffAblation:
    def test_checkpoints_generated(self):
        shadow, _, _, _ = make_shadow(shadow_logging=False)
        gen = shadow.tree.next_gen()
        plan = shadow.plan_write(0, b"a" * 4096, gen)
        assert plan.checkpoints  # double write scheduled


def _per_bit_runs(mask, s0, s1):
    """[s0, s1) cut into maximal runs of equal valid bits, one bit at a
    time: the reference for ``ShadowLog._plan_leaf``'s trailing-ones /
    trailing-zeros run ends."""
    runs, i = [], s0
    while i < s1:
        bit = (mask >> i) & 1
        j = i + 1
        while j < s1 and ((mask >> j) & 1) == bit:
            j += 1
        runs.append((i, j, bit))
        i = j
    return runs


class TestLeafRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        nbits=st.sampled_from([1, 2, 8, 32]),
        mask=st.integers(0, bitmap.MASK32),
        cut=st.tuples(st.integers(0, 4095), st.integers(1, 4096)),
    )
    def test_run_boundaries_match_per_bit_scan(self, nbits, mask, cut):
        """One device write per run: a set bit's run goes to the ancestor
        (the file extent), a clear bit's to the leaf log, so two adjacent
        runs never have touching targets and are never merged."""
        shadow, tree, _, inode = make_shadow(leaf_valid_bits=nbits)
        off_in, length = cut[0], min(cut[1], 4096 - cut[0])
        node = tree.node(0, 1)
        node.word = bitmap.pack_leaf(mask, 1)
        off = node.start + off_in
        sub = 4096 // nbits
        plan = WritePlan(gen=2)
        shadow._plan_leaf(plan, node, 0, inode.base, 0, off, length, b"d" * length, off)
        expected = [
            (node.start + i * sub + (inode.base if bit else node.log_off - node.start), (j - i) * sub)
            for i, j, bit in _per_bit_runs(mask, off_in // sub, -(-(off_in + length) // sub))
        ]
        assert [(t, len(p)) for t, p in plan.data_writes] == expected
        assert b"".join(p for _, p in plan.data_writes)[off_in % sub :][:length] == b"d" * length
