"""Online checkpoint API and read-only open semantics."""

from __future__ import annotations

import random

import pytest

from repro.bench.registry import make_fs
from repro.core import MgspConfig, MgspFilesystem
from repro.core.verify import verify_file
from repro.errors import ReadOnlyError
from repro.fsapi.interface import OpenFlags

from tests.conftest import ALL_FS_NAMES

CAP = 512 * 1024


@pytest.fixture
def mgsp_handle():
    fs = MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))
    return fs.create("c", capacity=CAP)


class TestCheckpoint:
    def test_checkpoint_preserves_content(self, mgsp_handle):
        f = mgsp_handle
        rng = random.Random(1)
        ref = bytearray(CAP)
        for _ in range(100):
            off = rng.randrange(0, CAP - 1)
            ln = min(rng.choice([100, 4096, 20_000]), CAP - off)
            payload = bytes([rng.randrange(1, 255)]) * ln
            f.write(off, payload)
            ref[off : off + ln] = payload
        copied = f.checkpoint()
        assert copied > 0
        size = f.size
        assert f.read(0, size) == bytes(ref[:size])

    def test_checkpoint_reclaims_log_space(self, mgsp_handle):
        f = mgsp_handle
        fs = f.fs
        for i in range(32):
            f.write(i * 4096, b"x" * 4096)
        assert fs.logs.in_use > 0
        f.checkpoint()
        assert fs.logs.in_use == 0

    def test_writes_continue_after_checkpoint(self, mgsp_handle):
        f = mgsp_handle
        f.write(0, b"before")
        f.checkpoint()
        f.write(6, b"after")
        assert f.read(0, 11) == b"beforeafter"
        assert verify_file(f).ok

    def test_checkpoint_idempotent_when_clean(self, mgsp_handle):
        f = mgsp_handle
        f.write(0, b"x" * 1000)
        f.checkpoint()
        assert f.checkpoint() == 0

    def test_state_verifies_after_checkpoint(self, mgsp_handle):
        f = mgsp_handle
        for i in range(20):
            f.write(i * 10_000, b"y" * 5000)
        f.checkpoint()
        report = verify_file(f)
        assert report.ok, report.errors
        assert report.valid_logs == 0

    def test_checkpoint_bounds_log_usage_over_time(self, mgsp_handle):
        """Periodic checkpointing keeps log-area usage bounded even for
        endless random-write workloads."""
        f = mgsp_handle
        fs = f.fs
        rng = random.Random(2)
        peak = 0
        for i in range(300):
            f.write(rng.randrange(CAP // 4096) * 4096, b"z" * 4096)
            if i % 100 == 99:
                f.checkpoint()
            peak = max(peak, fs.logs.in_use)
        assert peak <= CAP + 64 * 1024


class TestReadOnly:
    @pytest.mark.parametrize("name", ALL_FS_NAMES)
    def test_rdonly_blocks_writes_everywhere(self, name):
        fs = make_fs(name, device_size=32 << 20)
        f = fs.create("r", 64 * 1024)
        f.write(0, b"data")
        f.close()
        ro = fs.open("r", OpenFlags.RDONLY)
        assert ro.read(0, 4) == b"data"
        with pytest.raises(ReadOnlyError):
            ro.write(0, b"nope")

    def test_rdwr_default_is_writable(self):
        fs = make_fs("MGSP", device_size=32 << 20)
        f = fs.create("r", 64 * 1024)
        f.close()
        rw = fs.open("r")
        rw.write(0, b"yes")
        assert rw.read(0, 3) == b"yes"
