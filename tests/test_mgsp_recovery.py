"""Crash consistency: atomicity + durability under adversarial crashes."""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CAP = 256 * 1024


def fresh_fs():
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(degree=16))
    f = fs.create("data", capacity=CAP)
    fs.device.drain()
    return fs, f


def crash_and_recover(fs, persist_probability=0.5, seed=1):
    image = fs.device.crash_image(rng=random.Random(seed), persist_probability=persist_probability)
    device = NvmDevice.from_image(bytes(image))
    return recover(device, config=MgspConfig(degree=16))


class TestRecoveryBasics:
    def test_clean_state_recovers_trivially(self):
        fs, f = fresh_fs()
        f.write(0, b"committed")
        fs2, stats = crash_and_recover(fs)
        f2 = fs2.open("data")
        assert f2.read(0, 9) == b"committed"
        assert stats.files_scanned >= 1

    def test_recovery_drops_all_logs(self):
        fs, f = fresh_fs()
        for i in range(10):
            f.write(i * 4096, bytes([i + 1]) * 4096)
        fs2, stats = crash_and_recover(fs)
        f2 = fs2.open("data")
        assert f2.tree.nodes == {}  # node table cleared
        for i in range(10):
            assert f2.read(i * 4096, 4096) == bytes([i + 1]) * 4096
        assert stats.log_bytes_written_back > 0

    def test_recovery_is_idempotent(self):
        fs, f = fresh_fs()
        f.write(0, b"x" * 5000)
        image = bytes(fs.device.crash_image(rng=random.Random(3)))
        fs_a, _ = recover(NvmDevice.from_image(image), config=MgspConfig(degree=16))
        fs_a.device.drain()
        fs_b, stats_b = recover(
            NvmDevice.from_image(bytes(fs_a.device.buffer.snapshot_durable())),
            config=MgspConfig(degree=16),
        )
        assert stats_b.entries_replayed == 0
        assert fs_b.open("data").read(0, 5000) == b"x" * 5000

    def test_recovery_reports_virtual_time(self):
        fs, f = fresh_fs()
        f.write(0, b"x" * 40960)
        _, stats = crash_and_recover(fs)
        assert stats.elapsed_ns > 0


def run_crashy_workload(crash_after, seed, persist_probability):
    """Returns (ok, detail) for one crash point."""
    fs, f = fresh_fs()
    rng = random.Random(seed)
    ref = bytearray(CAP)
    pending = None
    fs.device.attach(CrashPlan(crash_after))
    try:
        for _ in range(10_000):
            off = rng.randrange(0, CAP - 1)
            ln = min(rng.choice([1, 100, 2048, 4096, 8192, 40000]), CAP - off)
            payload = bytes([rng.randrange(1, 256)]) * ln
            pending = (off, ln, payload)
            f.write(off, payload)
            ref[off : off + ln] = payload
            pending = None
        return None
    except CrashRequested:
        pass
    image = fs.device.crash_image(
        rng=random.Random(seed * 31 + crash_after), persist_probability=persist_probability
    )
    fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16))
    f2 = fs2.open("data")
    got = f2.read(0, f2.size).ljust(CAP, b"\0")
    old = bytes(ref)
    if pending is None:
        return got == old, "no in-flight op"
    off, ln, payload = pending
    new = bytearray(ref)
    new[off : off + ln] = payload
    ok = got == old or got == bytes(new)
    return ok, f"in-flight write [{off}, {off + ln})"


@pytest.mark.parametrize("persist_probability", [0.0, 0.5, 1.0])
def test_crash_atomicity_and_durability_sweep(persist_probability):
    """Crash at dozens of points; every completed write must survive and
    the in-flight write must be all-or-nothing."""
    for crash_after in range(1, 900, 53):
        result = run_crashy_workload(crash_after, seed=11, persist_probability=persist_probability)
        if result is None:
            break
        ok, detail = result
        assert ok, f"crash_after={crash_after} p={persist_probability}: {detail}"


def test_crash_during_recovery_is_recoverable():
    """Recovery itself may crash; rerunning it must still converge."""
    fs, f = fresh_fs()
    for i in range(5):
        f.write(i * 10_000, bytes([i + 1]) * 5000)
    image = bytes(fs.device.crash_image(rng=random.Random(5)))

    # First recovery attempt crashes partway through.
    device = NvmDevice.from_image(image)
    device.attach(CrashPlan(crash_after=30))
    try:
        recover(device, config=MgspConfig(degree=16))
    except CrashRequested:
        pass
    image2 = bytes(device.crash_image(rng=random.Random(6)))

    fs2, _ = recover(NvmDevice.from_image(image2), config=MgspConfig(degree=16))
    f2 = fs2.open("data")
    for i in range(5):
        assert f2.read(i * 10_000, 5000) == bytes([i + 1]) * 5000


def test_torn_metalog_entry_means_op_never_happened():
    """If the crash tears the metadata-log entry, recovery must keep the
    old data (checksum rejects the entry)."""
    fs, f = fresh_fs()
    f.write(0, b"old" * 2000)
    fs.device.drain()
    # Crash on the second fence of the op (the metalog commit fence) and
    # persist NOTHING unfenced: the entry cannot be durable.
    fs.device.attach(CrashPlan(crash_after=1, kinds={"fence"}))
    try:
        f.write(100, b"NEW" * 2000)
    except CrashRequested:
        pass
    fs2, _ = recover(
        NvmDevice.from_image(bytes(fs.device.crash_image(persist_words=[]))),
        config=MgspConfig(degree=16),
    )
    data = fs2.open("data").read(0, 6000)
    assert data == b"old" * 2000


def test_multiple_files_recover_independently():
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(degree=16))
    a = fs.create("a", capacity=64 << 10)
    b = fs.create("b", capacity=64 << 10)
    fs.device.drain()
    a.write(0, b"A" * 8192)
    b.write(0, b"B" * 8192)
    fs2, stats = (lambda img: recover(NvmDevice.from_image(img), config=MgspConfig(degree=16)))(
        bytes(fs.device.crash_image(rng=random.Random(2)))
    )
    assert fs2.open("a").read(0, 8192) == b"A" * 8192
    assert fs2.open("b").read(0, 8192) == b"B" * 8192
    assert stats.files_scanned >= 2
