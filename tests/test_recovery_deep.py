"""Recovery corner cases beyond the basic sweep."""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.core.verify import verify_file
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

MB = 1 << 20


def crash_image(fs, seed=1, p=0.5):
    return bytes(fs.device.crash_image(rng=random.Random(seed), persist_probability=p))


class TestRecoveryCorners:
    def test_recovery_of_grown_file_size(self):
        """A crash right after a size-growing write commits: recovery
        must restore the new size from the metadata log."""
        fs = MgspFilesystem(device_size=64 * MB, config=MgspConfig(degree=16))
        f = fs.create("g", capacity=MB)
        fs.device.drain()
        # Crash immediately after the metalog fence (fence #2): the op is
        # committed but the size field may not be durable.
        fs.device.attach(CrashPlan(crash_after=2, kinds={"fence"}))
        with pytest.raises(CrashRequested):
            f.write(500_000, b"tail-data")
            f.write(600_000, b"x")  # force a second op if the first survived
        fs2, stats = recover(NvmDevice.from_image(crash_image(fs, p=0.0)), config=MgspConfig(degree=16))
        f2 = fs2.open("g")
        if stats.entries_replayed:
            assert f2.size >= 500_009
            assert f2.read(500_000, 9) == b"tail-data"

    def test_mixed_txn_and_plain_entries(self):
        """A committed plain write + a committed transaction both in the
        metalog at crash time: recovery applies both."""
        fs = MgspFilesystem(device_size=64 * MB, config=MgspConfig(degree=16))
        f = fs.create("m", capacity=MB)
        fs.device.drain()
        f.write(0, b"plain" * 100)
        with fs.begin_transaction(f) as txn:
            txn.write(50_000, b"txn-a" * 100)
            txn.write(90_000, b"txn-b" * 100)
        fs2, _ = recover(NvmDevice.from_image(crash_image(fs, seed=9)), config=MgspConfig(degree=16))
        f2 = fs2.open("m")
        assert f2.read(0, 5) == b"plain"
        assert f2.read(50_000, 5) == b"txn-a"
        assert f2.read(90_000, 5) == b"txn-b"

    def test_recovered_file_verifies_and_accepts_writes(self):
        fs = MgspFilesystem(device_size=64 * MB, config=MgspConfig(degree=16))
        f = fs.create("w", capacity=MB)
        fs.device.drain()
        rng = random.Random(6)
        fs.device.attach(CrashPlan(crash_after=400))
        try:
            while True:
                f.write(rng.randrange(200) * 4096, b"d" * 4096)
        except CrashRequested:
            pass
        fs2, _ = recover(NvmDevice.from_image(crash_image(fs)), config=MgspConfig(degree=16))
        f2 = fs2.open("w")
        assert verify_file(f2).ok
        f2.write(0, b"post-recovery")
        assert f2.read(0, 13) == b"post-recovery"
        assert verify_file(f2).ok

    def test_double_crash_during_writeback(self):
        """Crash during recovery's write-back phase, then recover again."""
        fs = MgspFilesystem(device_size=64 * MB, config=MgspConfig(degree=16))
        f = fs.create("d", capacity=MB)
        fs.device.drain()
        for i in range(30):
            f.write(i * 4096, bytes([i + 1]) * 4096)
        image = crash_image(fs, seed=2)
        device = NvmDevice.from_image(image)
        device.attach(CrashPlan(crash_after=100))
        try:
            recover(device, config=MgspConfig(degree=16))
        except CrashRequested:
            pass
        second = bytes(device.crash_image(rng=random.Random(3)))
        fs3, _ = recover(NvmDevice.from_image(second), config=MgspConfig(degree=16))
        f3 = fs3.open("d")
        for i in range(30):
            assert f3.read(i * 4096, 4096) == bytes([i + 1]) * 4096

    def test_recovery_with_many_leaf_flips(self):
        """Ping-pong a leaf so its latest copy lives in the FILE (valid
        bit 0); a crash + recovery must not resurrect the log copy."""
        fs = MgspFilesystem(device_size=64 * MB, config=MgspConfig(degree=16))
        f = fs.create("p", capacity=MB)
        fs.device.drain()
        f.write(0, b"old!" * 1024)  # -> leaf log
        f.write(0, b"new!" * 1024)  # -> file (undo-style)
        fs2, _ = recover(NvmDevice.from_image(crash_image(fs, seed=11)), config=MgspConfig(degree=16))
        assert fs2.open("p").read(0, 4096) == b"new!" * 1024

    def test_kindest_crash_equals_drain(self):
        """persist_probability=1.0 (every dirty line evicted just in
        time) must also recover correctly — the protocol cannot rely on
        data NOT persisting."""
        fs = MgspFilesystem(device_size=64 * MB, config=MgspConfig(degree=16))
        f = fs.create("k", capacity=MB)
        fs.device.drain()
        fs.device.attach(CrashPlan(crash_after=333))
        ref = bytearray(MB)
        rng = random.Random(13)
        pending = None
        try:
            while True:
                off = rng.randrange(0, MB - 5000)
                payload = bytes([rng.randrange(1, 255)]) * 5000
                pending = (off, payload)
                f.write(off, payload)
                ref[off : off + 5000] = payload
                pending = None
        except CrashRequested:
            pass
        fs2, _ = recover(NvmDevice.from_image(crash_image(fs, p=1.0)), config=MgspConfig(degree=16))
        got = fs2.open("k").read(0, MB).ljust(MB, b"\0")
        expected_old = bytes(ref)
        if pending:
            off, payload = pending
            with_pending = bytearray(ref)
            with_pending[off : off + 5000] = payload
            assert got in (expected_old, bytes(with_pending))
        else:
            assert got == expected_old

    def test_empty_device_recovers(self):
        fs = MgspFilesystem(device_size=64 * MB)
        fs.device.drain()
        fs2, stats = recover(
            NvmDevice.from_image(bytes(fs.device.buffer.snapshot_durable()))
        )
        assert stats.entries_replayed == 0
        assert stats.files_scanned == 0
