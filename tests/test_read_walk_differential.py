"""The iterative MGSP read walk vs the recursive one it replaced.

``ShadowLog.read_range`` promises more than equal bytes: the same
``visited`` count (it is charged to the virtual clock as tree-node
compute) and the same ``device.load`` calls in the same order with the
same offsets and lengths (each is an ``io`` segment of the op's trace).
A hypothesis machine drives one MGSP file through sub-block,
leaf-spanning and 256 KB full-cover coarse writes, transactions that
commit or roll back, checkpoints, close + reopen and growth past the
covered range, and after every step reads a span inside one leaf,
across a leaf, across a level-1 boundary, one byte and one past EOF with
both walks (``tests/read_oracle.py``), comparing bytes, ``visited``,
load calls, ``DeviceStats`` load counters and the recorder segments.
Each configuration that changes the tree the walk reads -- leaf word
width, coarse commits, shadow logging, degree -- gets its own machine
(and ``min_search_tree=False``, which changes only what a read is
charged); at degree 8 the 256 KB write is a level-2 commit, so stale
non-leaf words are read too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import read_oracle
from repro.core import MgspConfig, MgspFilesystem, bitmap

LEAF = 4096
L1 = 256 * 1024  # degree 64: one level-1 node
CAP = 4 * L1


def observe(fs, reader, off: int, length: int):
    """Run *reader* inside one op; everything the walk is pinned on."""
    device, stats = fs.device, fs.device.stats
    loads, loaded = stats.loads, stats.loaded_bytes
    calls = []
    inner = device.load
    device.load = lambda offset, n: calls.append((offset, n)) or inner(offset, n)
    fs.take_traces()
    try:
        with fs.op("read"):
            data, visited = reader(off, length)
    finally:
        del device.load
    segments = [trace.segments for trace in fs.take_traces()]
    return {
        "data": data,
        "visited": visited,
        "calls": calls,
        "loads": stats.loads - loads,
        "loaded_bytes": stats.loaded_bytes - loaded,
        "segments": segments,
    }


def check_read(fs, handle, off: int, length: int) -> bytes:
    """Both walks over one span; the new one must not materialise a node."""
    tree, shadow = handle.tree, handle.shadow
    old = observe(fs, lambda o, n: read_oracle.read_range(shadow, o, n), off, length)
    nodes = set(tree.nodes)
    new = observe(fs, shadow.read_range, off, length)
    assert set(tree.nodes) == nodes
    assert type(new["data"]) is bytes
    for key in old:
        assert new[key] == old[key], (key, off, length)
    return new["data"]


class ReadWalkMachine(RuleBasedStateMachine):
    CONFIG = MgspConfig()

    @initialize(seed=st.integers(0, 2**32 - 1))
    def setup(self, seed):
        self.rng = random.Random(seed)
        self.fs = MgspFilesystem(device_size=64 << 20, config=self.CONFIG)
        self.handle = self.fs.create("f", capacity=CAP)
        self.model = bytearray(CAP)
        self.size = 0

    def _write(self, off, payload):
        self.handle.write(off, payload)
        self.model[off : off + len(payload)] = payload
        self.size = max(self.size, off + len(payload))

    @rule(leaf=st.integers(0, CAP // LEAF - 1), at=st.integers(0, LEAF - 1),
          length=st.integers(1, 300), fill=st.integers(1, 255))
    def write_sub_block(self, leaf, at, length, fill):
        length = min(length, LEAF - at)
        self._write(leaf * LEAF + at, bytes([fill]) * length)

    @rule(boundary=st.integers(1, CAP // LEAF - 1), before=st.integers(1, LEAF),
          after=st.integers(1, 2 * LEAF), fill=st.integers(1, 255))
    def write_leaf_spanning(self, boundary, before, after, fill):
        off = boundary * LEAF - before
        self._write(off, bytes([fill]) * min(before + after, CAP - off))

    @rule(node=st.integers(0, CAP // L1 - 1), level_1=st.booleans(), fill=st.integers(1, 255))
    def write_coarse(self, node, level_1, fill):
        # 256 KB is level 1 at degree 64 and level 2 at degree 8, where a
        # commit there makes the level-1 words below it stale
        size = self.CONFIG.leaf_size * self.CONFIG.degree if level_1 else L1
        self._write(node * L1, bytes([fill]) * size)

    @precondition(lambda self: self.handle.tree.covered() < CAP)
    @rule(past=st.integers(0, 3 * LEAF), length=st.integers(1, 3 * LEAF), fill=st.integers(1, 255))
    def grow_past_covered(self, past, length, fill):
        off = self.handle.tree.covered() + past
        self._write(off, bytes([fill]) * min(length, CAP - off))

    @rule(
        pairs=st.lists(
            st.tuples(st.integers(0, CAP - 1), st.integers(1, 6000), st.integers(1, 255)),
            min_size=1, max_size=3,
        ),
        commit=st.booleans(),
    )
    def transaction(self, pairs, commit):
        txn = self.fs.begin_transaction(self.handle)
        staged, staged_size = bytearray(self.model), self.size
        for off, length, fill in pairs:
            payload = bytes([fill]) * min(length, CAP - off)
            txn.write(off, payload)
            staged[off : off + len(payload)] = payload
            staged_size = max(staged_size, off + len(payload))
        if commit:
            txn.commit()
            self.model, self.size = staged, staged_size
        else:
            txn.rollback()

    @rule()
    def checkpoint(self):
        self.handle.checkpoint()

    @rule()
    def close_reopen(self):
        self.handle.close()
        self.handle = self.fs.open("f")

    @invariant()
    def reads_agree(self):
        rng = self.rng
        leaf = rng.randrange(CAP // LEAF) * LEAF
        at = rng.randrange(LEAF)
        boundary = rng.randrange(1, CAP // LEAF) * LEAF
        l1 = rng.randrange(1, CAP // L1) * L1
        eof = max(0, self.size - rng.randrange(300))
        probes = [
            (leaf + at, rng.randint(1, LEAF - at)),  # inside one leaf
            (boundary - rng.randint(1, LEAF), rng.randint(LEAF + 1, 2 * LEAF)),  # across a leaf
            (l1 - rng.randint(1, 2 * LEAF), rng.randint(2 * LEAF + 1, 4 * LEAF)),  # across level 1
            (rng.randrange(CAP), 1),
            (eof, min(rng.randint(1, 600), CAP - eof)),  # past EOF
        ]
        for off, length in probes:
            length = min(length, CAP - off)
            if length <= 0:
                continue
            data = check_read(self.fs, self.handle, off, length)
            inside = max(0, min(length, self.size - off))
            assert data[:inside] == bytes(self.model[off : off + inside])
            assert self.handle.read(off, length) == bytes(self.model[off : off + inside])


CONFIGS = {
    "default": MgspConfig(),
    "degree_8": MgspConfig(degree=8),
    "leaf_bits_1": MgspConfig(leaf_valid_bits=1),
    "leaf_bits_8": MgspConfig(leaf_valid_bits=8),
    "no_fine_grained_logging": MgspConfig(fine_grained_logging=False),
    "no_multi_granularity": MgspConfig(multi_granularity=False),
    "no_min_search_tree": MgspConfig(min_search_tree=False),
    "no_shadow_logging": MgspConfig(shadow_logging=False),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_read_walk_matches_the_recursive_walk(name):
    machine = type(f"ReadWalk_{name}", (ReadWalkMachine,), {"CONFIG": CONFIGS[name]})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=25, stateful_step_count=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    ))


def test_stale_level_1_words_below_a_level_2_commit():
    """At degree 8 a 256 KB write commits level 2 and leaves the level-1
    words below it stale; a later write re-sets the level-2 existing bit
    and refreshes only its own path, so a read descends into a stale
    level-1 word whose existing bit is still set and must not follow it."""
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=8))
    handle = fs.create("f", capacity=CAP)
    handle.write(L1 + 4 * LEAF, b"g" * 10)  # past level 2: height 3
    handle.write(8 * LEAF + 100, b"a" * 50)  # level-1 node 1 gets fresh data
    handle.write(0, b"b" * L1)  # level-2 commit over it
    handle.write(100, b"c" * 50)  # re-sets level 2's existing bit
    stale = bitmap.unpack_nonleaf(handle.tree.nodes[(1, 1)].word)
    assert stale.existing and stale.own_gen < bitmap.unpack_nonleaf(handle.tree.nodes[(2, 0)].word).sub_gen
    for off, length in ((0, L1), (8 * LEAF, LEAF), (8 * LEAF + 64, 300), (7 * LEAF, 3 * LEAF)):
        check_read(fs, handle, off, length)
    assert handle.read(8 * LEAF + 100, 50) == b"b" * 50


def _leaf_one_sub_block_too_far(shadow, node, path_gen, last_base, last_start, off, length, out, out_base):
    """``read_oracle._read_leaf`` with every run that stops short of the
    span's end coalesced over one more sub-block."""
    sub = shadow.config.leaf_size // shadow.config.effective_leaf_bits
    mask = bitmap.effective_leaf(node.word, path_gen).mask
    pos, end = off, off + length
    while pos < end:
        i = (pos - node.start) // sub
        bit = (mask >> i) & 1
        j = i
        while node.start + (j + 1) * sub < end and ((mask >> (j + 1)) & 1) == bit:
            j += 1
        if node.start + (j + 1) * sub < end:
            j += 1  # the mutation
        run_end = min(end, node.start + (j + 1) * sub)
        src = node.log_off + (pos - node.start) if bit else last_base + (pos - last_start)
        read_oracle._copy_from(shadow, src, pos, run_end - pos, out, out_base)
        pos = run_end
    return 0


def test_the_differential_catches_a_run_coalesced_one_sub_block_too_far(monkeypatch):
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig())
    handle = fs.create("f", capacity=CAP)
    handle.write(0, b"a" * 2 * LEAF)
    handle.write(128, b"b" * 128)  # leaf 0: sub-block 1 back in the file, the rest in its log
    check_read(fs, handle, 0, 2 * LEAF)  # the real walk agrees
    monkeypatch.setattr(read_oracle, "_read_leaf", _leaf_one_sub_block_too_far)
    with pytest.raises(AssertionError):
        check_read(fs, handle, 0, 2 * LEAF)

