"""Namespace stress + mmap views over baseline handles."""

from __future__ import annotations

import pytest

from repro.core.mmio import MgspMmap
from repro.errors import AllocationError
from repro.fs import Ext4Dax
from repro.fsapi.volume import Volume
from repro.nvm.device import NvmDevice


class TestManyFiles:
    def test_hundreds_of_files_roundtrip(self):
        device = NvmDevice(128 << 20)
        volume = Volume(device)
        inodes = {}
        for i in range(300):
            inodes[f"file{i:04d}"] = volume.create(f"file{i:04d}", 8192)
        device.drain()
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.buffer.snapshot_durable())))
        assert len(remounted.files()) == 300
        for name, inode in list(inodes.items())[:20]:
            again = remounted.lookup(name)
            assert (again.base, again.capacity) == (inode.base, inode.capacity)

    def test_slot_table_exhaustion(self):
        device = NvmDevice(512 << 20)
        volume = Volume(device)
        with pytest.raises(AllocationError):
            for i in range(5000):
                volume.create(f"f{i}", 4096)
        assert len(volume.files()) == volume._max_slots

    def test_create_unlink_churn_reuses_slots_and_names(self):
        device = NvmDevice(64 << 20)
        volume = Volume(device)
        for round_ in range(5):
            for i in range(50):
                volume.create(f"churn{i}", 4096)
            for i in range(50):
                volume.unlink(f"churn{i}")
        assert volume.files() == []

    def test_name_truncated_at_16_bytes(self):
        device = NvmDevice(64 << 20)
        volume = Volume(device)
        long_name = "exactly-sixteen!"  # 16 bytes
        volume.create(long_name, 4096)
        device.drain()
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.buffer.snapshot_durable())))
        assert remounted.exists(long_name)


class TestMmapOverBaselines:
    """MgspMmap is generic: it works over any FileHandle, inheriting the
    handle's (weaker) consistency guarantees."""

    def test_over_ext4dax(self):
        fs = Ext4Dax(device_size=64 << 20)
        handle = fs.create("m", 256 * 1024)
        mm = MgspMmap(handle)
        mm[0:5] = b"plain"
        assert mm[0:5] == b"plain"
        assert handle.read(0, 5) == b"plain"

    def test_length_bounds_view(self):
        fs = Ext4Dax(device_size=64 << 20)
        handle = fs.create("m", 256 * 1024)
        mm = MgspMmap(handle, length=4096)
        assert len(mm) == 4096
        with pytest.raises(IndexError):
            mm[4096]
