"""Volume: namespace persistence, extents, size updates, remount."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError, FileExists, FileNotFound
from repro.fsapi.layout import VolumeLayout
from repro.fsapi.volume import INODE_MAGIC, Volume
from repro.nvm.device import NvmDevice


@pytest.fixture
def volume(device):
    return Volume(device)


class TestNamespace:
    def test_create_lookup(self, volume):
        inode = volume.create("a", 8192)
        assert volume.exists("a")
        assert volume.lookup("a") is inode
        assert inode.capacity == 8192
        assert inode.size == 0

    def test_capacity_rounded_to_page(self, volume):
        inode = volume.create("a", 5000)
        assert inode.capacity == 8192

    def test_duplicate_create_rejected(self, volume):
        volume.create("a", 4096)
        with pytest.raises(FileExists):
            volume.create("a", 4096)

    def test_lookup_missing(self, volume):
        with pytest.raises(FileNotFound):
            volume.lookup("nope")

    def test_unlink(self, volume):
        volume.create("a", 4096)
        volume.unlink("a")
        assert not volume.exists("a")

    def test_slot_reused_after_unlink(self, volume):
        a = volume.create("a", 4096)
        slot = a.slot_offset
        volume.unlink("a")
        b = volume.create("b", 4096)
        assert b.slot_offset == slot

    def test_extents_disjoint(self, volume):
        a = volume.create("a", 1 << 20)
        b = volume.create("b", 1 << 20)
        assert a.base + a.capacity <= b.base or b.base + b.capacity <= a.base

    def test_by_id(self, volume):
        a = volume.create("a", 4096)
        assert volume.by_id(a.id) is a
        with pytest.raises(FileNotFound):
            volume.by_id(9999)

    def test_extentless_inode(self, volume):
        inode = volume.create("log", 1 << 20, reserve_extent=False)
        assert inode.base == 0
        assert inode.capacity == 1 << 20

    def test_data_area_exhaustion(self, device):
        volume = Volume(device)
        data = volume.layout.data_area.size
        volume.create("big", data - 8192)
        with pytest.raises(AllocationError):
            volume.create("more", 1 << 20)


class TestSize:
    def test_set_size_persists(self, volume, device):
        inode = volume.create("a", 8192)
        volume.set_size(inode, 5000)
        assert inode.size == 5000
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.crash_image(persist_words=[]))))
        assert remounted.lookup("a").size == 5000

    def test_set_size_beyond_capacity_rejected(self, volume):
        inode = volume.create("a", 8192)
        with pytest.raises(AllocationError):
            volume.set_size(inode, 8193)

    def test_volatile_size_not_durable(self, volume, device):
        inode = volume.create("a", 8192)
        volume.set_size_volatile(inode, 5000)
        assert inode.size == 5000
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.crash_image(persist_words=[]))))
        assert remounted.lookup("a").size == 0

    def test_persist_size_makes_volatile_durable(self, volume, device):
        inode = volume.create("a", 8192)
        volume.set_size_volatile(inode, 5000)
        volume.persist_size(inode)
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.crash_image(persist_words=[]))))
        assert remounted.lookup("a").size == 5000


class TestMount:
    def test_mount_restores_everything(self, device):
        volume = Volume(device)
        a = volume.create("alpha", 1 << 20, node_table_len=4096)
        b = volume.create("beta", 2 << 20)
        volume.set_size(a, 1234)
        device.drain()
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.buffer.snapshot_durable())))
        ra = remounted.lookup("alpha")
        rb = remounted.lookup("beta")
        assert (ra.id, ra.base, ra.capacity, ra.size) == (a.id, a.base, a.capacity, 1234)
        assert ra.node_table_off == a.node_table_off
        assert rb.base == b.base

    def test_mount_continues_allocation_after_existing(self, device):
        volume = Volume(device)
        volume.create("a", 1 << 20)
        device.drain()
        remounted = Volume.mount(NvmDevice.from_image(bytes(device.buffer.snapshot_durable())))
        c = remounted.create("c", 4096)
        a = remounted.lookup("a")
        assert c.base >= a.base + a.capacity
        assert c.id > a.id

    def test_mount_ignores_the_magic_outside_a_slot_boundary(self, device):
        """A file of INODE_MAGIC bytes stores the magic in its size field
        (slot offset 24): the remount finds exactly the created inodes."""
        volume = Volume(device)
        a = volume.create("alpha", 2 << 20)
        b = volume.create("beta", 4096)
        volume.set_size(a, INODE_MAGIC)
        device.drain()
        remounted = Volume.mount(NvmDevice.from_image(device.buffer.snapshot_durable()))
        got = {i.name: (i.id, i.base, i.capacity, i.size, i.slot_offset) for i in remounted.files()}
        assert got == {
            "alpha": (a.id, a.base, a.capacity, INODE_MAGIC, a.slot_offset),
            "beta": (b.id, b.base, b.capacity, 0, b.slot_offset),
        }

    def test_mount_empty(self, device):
        remounted = Volume.mount(device)
        assert remounted.files() == []


class TestLayout:
    def test_regions_are_disjoint_and_ordered(self, device):
        layout = VolumeLayout.for_device(device.size)
        regions = [
            layout.superblock,
            layout.metalog,
            layout.node_tables,
            layout.journal,
            layout.log_area,
            layout.data_area,
        ]
        for first, second in zip(regions, regions[1:]):
            assert first.end <= second.start
        assert regions[-1].end == device.size

    def test_region_contains(self, device):
        layout = VolumeLayout.for_device(device.size)
        r = layout.log_area
        assert r.contains(r.start)
        assert r.contains(r.end - 1)
        assert not r.contains(r.end)

    def test_tiny_device_rejected(self):
        with pytest.raises(ValueError):
            VolumeLayout.for_device(1 << 20)

    def test_fraction_overflow_rejected(self):
        with pytest.raises(ValueError):
            VolumeLayout.for_device(8 << 20, log_fraction=0.95, node_table_fraction=0.05)
