"""Contract tests every file system must satisfy."""

from __future__ import annotations

import random

import pytest

from repro.errors import BadFileDescriptor, FileNotFound, FsError
from repro.fsapi.interface import OpenFlags

from tests.conftest import ALL_FS_NAMES, make_all_filesystems, make_filesystem

CAP = 256 * 1024
SMALL = 8 * 1024


@pytest.fixture(params=ALL_FS_NAMES)
def any_fs(request):
    return make_filesystem(request.param, device_size=32 << 20)


@pytest.fixture
def packed(any_fs):
    """Three adjacent 8 KB files, filled and synced; the outer two are
    closed again, the middle handle is what the test misuses."""
    handles = {}
    for name in ("low", "mid", "high"):
        handles[name] = handle = any_fs.create(name, SMALL)
        handle.write(0, name[:1].encode() * SMALL)
        handle.fsync()
    handles["low"].close()
    handles["high"].close()
    return any_fs, handles["mid"]


def assert_rejected_with_nothing_applied(fs, mid, call):
    """*call* raises ``FsError`` having stored, counted and traced
    nothing, and a later fsync of the misused file leaves both
    neighbours intact — read through fresh handles, so a page cache
    cannot answer for the medium."""
    stored = fs.device.stats.stored_bytes
    api = fs.api.snapshot()
    fs.take_traces()
    with pytest.raises(FsError):
        call()
    assert fs.device.stats.stored_bytes == stored
    assert fs.api == api
    assert not fs.take_traces()
    mid.fsync()
    assert mid.read(0, SMALL) == b"m" * SMALL
    for name in ("low", "high"):
        with fs.open(name) as fresh:
            assert fresh.read(0, SMALL) == name[:1].encode() * SMALL, name


class TestContract:
    def test_create_then_read_empty(self, any_fs):
        f = any_fs.create("x", CAP)
        assert f.size == 0
        assert f.read(0, 100) == b""

    def test_read_your_writes(self, any_fs):
        f = any_fs.create("x", CAP)
        f.write(0, b"abc")
        f.write(10, b"def")
        assert f.read(0, 3) == b"abc"
        assert f.read(10, 3) == b"def"

    def test_overwrite(self, any_fs):
        f = any_fs.create("x", CAP)
        f.write(0, b"aaaa")
        f.write(1, b"bb")
        assert f.read(0, 4) == b"abba"

    def test_size_tracks_max_extent(self, any_fs):
        f = any_fs.create("x", CAP)
        f.write(100, b"z")
        assert f.size == 101
        f.write(0, b"z")
        assert f.size == 101

    def test_read_clipped_at_eof(self, any_fs):
        f = any_fs.create("x", CAP)
        f.write(0, b"12345")
        assert f.read(3, 100) == b"45"
        assert f.read(5, 10) == b""

    def test_fsync_then_read(self, any_fs):
        f = any_fs.create("x", CAP)
        f.write(0, b"persist me")
        f.fsync()
        assert f.read(0, 10) == b"persist me"

    def test_fuzz_against_reference(self, any_fs):
        f = any_fs.create("x", CAP)
        rng = random.Random(42)
        ref = bytearray(CAP)
        size = 0
        for i in range(120):
            off = rng.randrange(0, CAP - 1)
            ln = min(rng.choice([1, 17, 512, 4096, 10000]), CAP - off)
            payload = bytes([rng.randrange(1, 256)]) * ln
            f.write(off, payload)
            ref[off : off + ln] = payload
            size = max(size, off + ln)
            if i % 9 == 0:
                f.fsync()
            roff = rng.randrange(0, size)
            rlen = min(rng.choice([1, 100, 6000]), size - roff)
            assert f.read(roff, rlen) == bytes(ref[roff : roff + rlen]), (any_fs.name, i)

    def test_write_past_capacity_rejected_before_any_store(self, packed):
        fs, mid = packed
        assert_rejected_with_nothing_applied(fs, mid, lambda: mid.write(8000, b"X" * 1000))

    def test_negative_write_offset_rejected_before_any_store(self, packed):
        fs, mid = packed
        assert_rejected_with_nothing_applied(fs, mid, lambda: mid.write(-100, b"X" * 50))

    def test_negative_read_offset_rejected(self, packed):
        fs, mid = packed
        assert_rejected_with_nothing_applied(fs, mid, lambda: mid.read(-10, 20))

    def test_closed_handle_rejected(self, any_fs):
        f = any_fs.create("x", CAP)
        f.close()
        with pytest.raises(BadFileDescriptor):
            f.read(0, 1)
        with pytest.raises(BadFileDescriptor):
            f.write(0, b"x")

    def test_open_missing_raises(self, any_fs):
        with pytest.raises(FileNotFound):
            any_fs.open("missing")

    def test_open_creat(self, any_fs):
        f = any_fs.open("fresh", OpenFlags.RDWR | OpenFlags.CREAT)
        f.write(0, b"ok")
        assert f.read(0, 2) == b"ok"

    def test_exists_and_unlink(self, any_fs):
        f = any_fs.create("x", CAP)
        f.close()
        assert any_fs.exists("x")
        any_fs.unlink("x")
        assert not any_fs.exists("x")

    def test_close_then_reopen_preserves_data(self, any_fs):
        f = any_fs.create("x", CAP)
        f.write(0, b"survives close")
        f.close()
        f2 = any_fs.open("x")
        assert f2.read(0, 14) == b"survives close"

    def test_two_files_isolated(self, any_fs):
        a = any_fs.create("a", CAP)
        b = any_fs.create("b", CAP)
        a.write(0, b"AAAA")
        b.write(0, b"BBBB")
        assert a.read(0, 4) == b"AAAA"
        assert b.read(0, 4) == b"BBBB"

    def test_ops_produce_traces(self, any_fs):
        f = any_fs.create("x", CAP)
        any_fs.take_traces()
        f.write(0, b"y" * 4096)
        traces = any_fs.take_traces()
        assert traces
        assert sum(t.duration_ns(any_fs.timing.lock_ns) for t in traces) > 0

    def test_driver_surface_is_declared(self, any_fs):
        """What the workload drivers use on every FS is on the base
        class: a thread id to set, a trailer that emits nothing unless
        the FS retains locks, a background stream that may be empty."""
        f = any_fs.create("x", CAP)
        f.write(0, b"y" * 4096)
        any_fs.take_traces()
        any_fs.take_bg_traces()
        assert any_fs.current_thread == 0
        any_fs.current_thread = 1
        any_fs.end_thread(1)
        if any_fs.name != "MGSP":  # MGSP's trailer releases retained MGL locks
            assert any_fs.take_traces() == []
            assert any_fs.take_bg_traces() == []
        assert any_fs.bg_daemon is (any_fs.name == "MGSP")

    def test_api_stats_track_bytes(self, any_fs):
        f = any_fs.create("x", CAP)
        base = any_fs.api.snapshot()
        f.write(0, b"y" * 1000)
        f.read(0, 500)
        delta = any_fs.api.delta(base)
        assert delta.bytes_written == 1000
        assert delta.bytes_read == 500
        assert delta.writes == 1 and delta.reads == 1


class TestConsistencyLevels:
    def test_declared_levels(self):
        levels = {fs.name: fs.consistency for fs in make_all_filesystems()}
        assert levels["MGSP"] == "operation"
        assert levels["NOVA"] == "operation"
        assert levels["Libnvmmio"] == "fsync"
        assert levels["Ext4-DAX"] == "metadata"

    def test_kernel_vs_user_space(self):
        spaces = {fs.name: fs.kernel_space for fs in make_all_filesystems()}
        assert spaces["MGSP"] is False
        assert spaces["Libnvmmio"] is False
        assert spaces["Ext4-DAX"] is True
        assert spaces["NOVA"] is True

    def test_user_space_synced_write_cheaper_than_kernel(self):
        """The central software-stack claim: a synchronized-atomic 4K
        write (write + fsync) costs less virtual time in user space than
        the kernel-space equivalent."""
        costs = {}
        for fs in make_all_filesystems(device_size=32 << 20):
            f = fs.create("x", CAP)
            fs.take_traces()
            f.write(0, b"z" * 4096)
            f.fsync()
            traces = fs.take_traces()
            costs[fs.name] = sum(t.duration_ns(fs.timing.lock_ns) for t in traces)
        assert costs["MGSP"] < costs["Ext4-DAX"]
        assert costs["MGSP"] < costs["NOVA"]
