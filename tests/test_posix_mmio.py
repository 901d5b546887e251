"""The failure-atomic mmap view."""

from __future__ import annotations

import pytest

from repro.core import MgspFilesystem
from repro.core.mmio import MgspMmap
from repro.errors import FsError


class TestMgspMmap:
    @pytest.fixture
    def mm(self):
        fs = MgspFilesystem(device_size=64 << 20)
        handle = fs.create("m", capacity=256 * 1024)
        return MgspMmap(handle)

    def test_store_load_roundtrip(self, mm):
        mm[0:5] = b"hello"
        assert mm[0:5] == b"hello"

    def test_single_byte(self, mm):
        mm[10:11] = b"!"
        assert mm[10] == b"!"

    def test_negative_index(self, mm):
        mm[len(mm) - 1 : len(mm)] = b"z"
        assert mm[-1] == b"z"

    def test_unwritten_reads_zero(self, mm):
        assert mm[1000:1010] == b"\0" * 10

    def test_mismatched_store_rejected(self, mm):
        with pytest.raises(ValueError):
            mm[0:10] = b"short"

    def test_strided_rejected(self, mm):
        with pytest.raises(ValueError):
            mm[0:10:2]

    def test_out_of_bounds(self, mm):
        with pytest.raises(IndexError):
            mm[len(mm)]

    def test_each_store_is_atomic_and_durable(self, mm):
        """A store through the mapping is durable at return — no msync
        needed (the property Libnvmmio lacks)."""
        handle = mm.handle
        fs = handle.fs
        fs.device.drain()
        mm[0:128] = b"q" * 128
        # Drop everything unfenced: the store must survive.
        import random

        from repro.core import MgspConfig, recover
        from repro.nvm.device import NvmDevice

        image = fs.device.crash_image(persist_words=[])
        fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=fs.config)
        assert fs2.open("m").read(0, 128) == b"q" * 128

    def test_flush_is_fence(self, mm):
        mm[0:4] = b"sync"
        mm.flush()
        assert mm[0:4] == b"sync"

    def test_closed_view_rejected(self, mm):
        mm.close()
        with pytest.raises(FsError):
            mm[0:1]

    def test_context_manager(self):
        fs = MgspFilesystem(device_size=64 << 20)
        handle = fs.create("m", capacity=4096)
        with MgspMmap(handle) as mm:
            mm[0:2] = b"ok"
        with pytest.raises(FsError):
            mm[0:2]
