"""MgspFile end-to-end: fuzz vs a flat reference, ablations, geometry."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MgspConfig, MgspFilesystem
from repro.core.metalog import MAX_SLOTS, TXN_COMMIT, TXN_MEMBER
from repro.errors import FsError

CAP = 1 << 20


def make_fs(**cfg):
    return MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16, **cfg))


ALL_CONFIGS = {
    "full": {},
    "degree64": {"degree": 64},
    "no-shadow": {"shadow_logging": False},
    "no-multigran": {"multi_granularity": False},
    "no-finegrain": {"fine_grained_logging": False},
    "no-finelock": {"fine_grained_locking": False},
    "no-opts": {
        "min_search_tree": False,
        "lazy_intention_locks": False,
        "greedy_locking": False,
    },
}


@pytest.mark.parametrize("name,cfg", ALL_CONFIGS.items())
def test_fuzz_against_reference(name, cfg):
    params = {"degree": 16}
    params.update(cfg)
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(**params))
    f = fs.create("data", capacity=CAP)
    rng = random.Random(hash(name) & 0xFFFF)
    ref = bytearray(CAP)
    size = 0
    for i in range(150):
        off = rng.randrange(0, CAP - 1)
        ln = min(rng.choice([1, 37, 128, 600, 4096, 9000, 70000]), CAP - off)
        payload = bytes([rng.randrange(1, 256)]) * ln
        f.write(off, payload)
        ref[off : off + ln] = payload
        size = max(size, off + ln)
        assert f.size == size
        roff = rng.randrange(0, size)
        rlen = min(rng.choice([1, 129, 5000]), size - roff)
        assert f.read(roff, rlen) == bytes(ref[roff : roff + rlen]), (name, i)
    f.close()
    f2 = fs.open("data")
    assert f2.read(0, size) == bytes(ref[:size])
    f2.close()


class TestBasics:
    def test_write_read_roundtrip(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        f.write(0, b"hello world")
        assert f.read(0, 11) == b"hello world"
        assert f.size == 11

    def test_read_clipped_at_size(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        f.write(0, b"abc")
        assert f.read(0, 100) == b"abc"
        assert f.read(50, 10) == b""

    def test_empty_write_noop(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        assert f.write(0, b"") == 0
        assert f.size == 0

    def test_write_beyond_capacity_rejected(self, mgsp):
        f = mgsp.create("a", capacity=4096)
        with pytest.raises(FsError):
            f.write(4000, b"x" * 200)

    def test_negative_offset_rejected(self, mgsp):
        f = mgsp.create("a", capacity=4096)
        with pytest.raises(FsError):
            f.write(-1, b"x")

    def test_sparse_write_reads_zero_gap(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        f.write(100000, b"tail")
        assert f.read(0, 10) == b"\0" * 10
        assert f.read(100000, 4) == b"tail"

    def test_fsync_is_noop_semantically(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        f.write(0, b"x")
        f.fsync()
        assert f.read(0, 1) == b"x"

    def test_mmap_view(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        f.write(0, b"direct")
        device, base, cap = f.mmap_view()
        assert cap == CAP

    def test_write_durable_without_any_sync(self, mgsp):
        """Operation-level durability: the data fence happens inside
        write(), so nothing unfenced remains that the write depends on."""
        f = mgsp.create("a", capacity=CAP)
        mgsp.device.drain()
        f.write(0, b"y" * 128)
        # The payload region itself must be durable now.
        base = f.inode.base
        durable = mgsp.device.buffer.snapshot_durable()
        # Either in the file or in a leaf log; find it via recovery-free
        # check: the committed leaf's authoritative source is durable.
        leaf = f.tree.peek(0, 0)
        from repro.core import bitmap as bm

        mask = bm.unpack_leaf(leaf.word).mask
        src = leaf.log_off if mask & 1 else base
        assert bytes(durable[src : src + 128]) == b"y" * 128


class TestGrowth:
    def test_file_grows_height(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        h0 = f.tree.height
        f.write(CAP - 4096, b"x" * 4096)
        assert f.tree.height >= h0
        assert f.tree.covered() >= CAP
        assert f.size == CAP

    def test_growth_preserves_earlier_data(self):
        fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=4))
        f = fs.create("a", capacity=CAP)
        f.write(0, b"first")
        for step in range(1, 6):
            off = step * 100000
            f.write(off, b"s%d" % step)
        assert f.read(0, 5) == b"first"
        for step in range(1, 6):
            assert f.read(step * 100000, 2) == b"s%d" % step


class TestSplitLargeWrites:
    """A write needing more metadata slots than one entry holds is still
    one op with one commit point: a TXN_MEMBER chain closed by one
    TXN_COMMIT entry. (The test names are kept from the split the chain
    replaced.)"""

    def test_huge_write_splits_but_lands(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        blob = bytes(range(256)) * 1024  # 256 KB
        f.write(1234, blob)
        assert mgsp.api.writes == 1
        assert not mgsp.metalog._in_use
        assert not mgsp.metalog.scan()  # every chain entry retired
        assert f.read(1234, len(blob)) == blob

    def test_terminal_count_estimator_matches_planner(self, mgsp, monkeypatch):
        calls = []
        real = mgsp.metalog.write

        def spy(*args, **kwargs):
            calls.append((args[4], kwargs.get("flags", 0)))  # offset / txn id
            return real(*args, **kwargs)

        monkeypatch.setattr(mgsp.metalog, "write", spy)
        chained = 0
        cases = [(0, 4096), (0, 65536), (100, 5000), (8192, 131072)]
        for i, (off, ln) in enumerate(cases):
            # Plan on a twin file: planning claims log blocks.
            twin = mgsp.create(f"plan{i}", capacity=CAP)
            twin._ensure_height(off + ln)
            slots = len(twin.shadow.plan_write(off, b"\0" * ln, twin.tree.next_gen()).commits)
            calls.clear()
            mgsp.create(f"a{i}", capacity=CAP).write(off, b"\1" * ln)
            n = -(-slots // MAX_SLOTS)
            assert len(calls) == n, (off, ln)
            if n == 1:
                assert calls == [(off, 0)], (off, ln)
                continue
            chained += 1
            assert len({txn_id for txn_id, _ in calls}) == 1, (off, ln)
            assert [flags for _, flags in calls] == [TXN_MEMBER] * (n - 1) + [
                TXN_MEMBER | TXN_COMMIT
            ], (off, ln)
        assert chained, "no case needs a chain"

    def test_chain_longer_than_the_log_raises_before_writing(self):
        # Without coarse logs every 4 KB leaf is a slot: 3 MB needs 64
        # entries of a 32-entry log.
        fs = make_fs(multi_granularity=False)
        f = fs.create("a", capacity=4 << 20)
        with pytest.raises(FsError, match="64 metadata-log entries"):
            f.write(0, b"o" * (3 << 20))
        assert not fs.metalog._in_use
        assert not fs.metalog.scan()


class TestMinSearchTree:
    def test_sequential_hits(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        for i in range(20):
            f.write(i * 128, b"z" * 128)
        assert f.mst_hits > f.mst_misses

    def test_random_misses(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        rng = random.Random(0)
        offs = [rng.randrange(250) * 4096 for _ in range(30)]
        for off in offs:
            f.write(off, b"z" * 4096)
        assert f.mst_misses > 0

    def test_disabled_tracks_nothing(self):
        fs = make_fs(min_search_tree=False)
        f = fs.create("a", capacity=CAP)
        for i in range(5):
            f.write(i * 4096, b"z" * 4096)
        assert f.mst_hits == 0 and f.mst_misses == 0


class TestWriteAmplification:
    def test_aligned_4k_near_one(self, mgsp):
        f = mgsp.create("a", capacity=CAP)
        base = mgsp.device.stats.snapshot()
        for i in range(64):
            f.write((i * 4096) % CAP, b"w" * 4096)
        amp = mgsp.device.stats.delta(base).stored_bytes / (64 * 4096)
        assert 1.0 < amp < 1.1

    def test_shadow_off_doubles(self):
        fs = make_fs(shadow_logging=False)
        f = fs.create("a", capacity=CAP)
        base = fs.device.stats.snapshot()
        for i in range(64):
            f.write((i * 4096) % CAP, b"w" * 4096)
        amp = fs.device.stats.delta(base).stored_bytes / (64 * 4096)
        assert amp > 1.9


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.integers(0, CAP - 1), st.integers(1, 40000), st.integers(1, 255)),
        min_size=1,
        max_size=25,
    )
)
def test_hypothesis_read_your_writes(ops):
    fs = make_fs()
    f = fs.create("h", capacity=CAP)
    ref = bytearray(CAP)
    size = 0
    for off, ln, fill in ops:
        ln = min(ln, CAP - off)
        payload = bytes([fill]) * ln
        f.write(off, payload)
        ref[off : off + ln] = payload
        size = max(size, off + ln)
    assert f.read(0, size) == bytes(ref[:size])
