"""Unlink-while-open vs the write-back scheduler (PR-8 bugfix).

``Volume.create`` reuses the first free inode slot, so after
``unlink("a"); create("b")`` the two files share a slot offset. Before
the fix, an epoch drain of the *dangling* handle ``a`` (POSIX
unlink-while-open keeps it writable) ran ``persist_size(a)`` and wrote
a's size into the slot that now belongs to ``b`` — silent metadata
corruption visible after the next mount. The scheduler also never heard
about the unlink (``forget`` was only wired to ``close``), and
``drain`` on a closed handle *zeroed* the counters, resurrecting dict
keys ``forget`` had dropped.

These tests fail on the pre-fix tree.
"""

from __future__ import annotations

import random

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.errors import CrashRequested
from repro.fsapi.layout import VolumeLayout
from repro.fsapi.volume import Volume
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CONFIG_KW = dict(degree=16, async_writeback=True, writeback_epoch_bytes=8192)


def _fs():
    return MgspFilesystem(device_size=32 << 20, config=MgspConfig(**CONFIG_KW))


def _run_unlink_reuse_workload(fs):
    """create a → write below epoch → unlink a → create b (reuses a's
    slot) → write+fsync b → write a past the epoch boundary (drains)."""
    a = fs.create("a", capacity=64 << 10)
    a.write(0, b"\x11" * 4096)  # below the 8 KiB epoch: no drain yet
    fs.unlink("a")
    b = fs.create("b", capacity=64 << 10)
    assert b.inode.slot_offset == a.inode.slot_offset  # slot reused
    b.write(0, b"\x22" * 100)
    b.fsync()  # b.size == 100 durable in the (shared) slot
    a.write(4096, b"\x33" * 8192)  # crosses the epoch: drains dangling a
    return a, b


def test_drain_of_dangling_handle_must_not_clobber_reused_slot():
    fs = _fs()
    a, b = _run_unlink_reuse_workload(fs)
    assert fs.flusher.epochs >= 1  # the drain actually fired
    assert a.inode.size == 12288  # DRAM mirror of the dangling handle
    # Remount from the media: b owns the slot and must still be 100 bytes.
    volume = Volume.mount(
        fs.device, VolumeLayout.for_device(fs.device.size, log_fraction=0.40)
    )
    assert volume.lookup("b").size == 100
    assert not volume.exists("a")
    # The live fs agrees with the media.
    assert b.inode.size == 100


def test_unlink_forgets_writeback_accounting():
    fs = _fs()
    a = fs.create("a", capacity=64 << 10)
    a.write(0, b"\x11" * 4096)
    key = a.inode.id
    assert fs.flusher._fresh_bytes.get(key) == 4096
    fs.unlink("a")
    assert key not in fs.flusher._fresh_bytes


def test_drain_on_closed_handle_does_not_resurrect_counters():
    fs = _fs()
    a = fs.create("a", capacity=64 << 10)
    a.write(0, b"\x11" * 1024)
    key = a.inode.id
    a.close()  # close() → forget(): counters dropped
    assert key not in fs.flusher._fresh_bytes
    fs.flusher.drain(a)  # late drain of a closed handle: must stay a no-op
    assert key not in fs.flusher._fresh_bytes


def test_close_of_unlinked_handle_leaves_reused_slot_alone():
    """close() also persists size; it must respect the unlinked flag."""
    fs = _fs()
    a, b = _run_unlink_reuse_workload(fs)
    a.close()
    volume = Volume.mount(
        fs.device, VolumeLayout.for_device(fs.device.size, log_fraction=0.40)
    )
    assert volume.lookup("b").size == 100


def _build_crashed(crash_after):
    fs = _fs()
    fs.device.drain()
    fs.device.attach(CrashPlan(crash_after))
    try:
        _run_unlink_reuse_workload(fs)
    except CrashRequested:
        return fs
    return None


def test_crash_sweep_unlink_reuse_never_corrupts_survivor():
    """Sweep crash points through the unlink/reuse sequence: at every
    point, under seeded persistence subsets, a recovered image must show
    b (if it exists) with a legal size — never a's 12288 — and recovery
    must be idempotent."""
    rng = random.Random(77)
    swept = 0
    for crash_after in range(1, 2000, 13):
        fs = _build_crashed(crash_after)
        if fs is None:
            break
        swept += 1
        words = fs.device.unfenced_words()
        subsets = [(), tuple(words)]
        if words:
            subsets.append(tuple(w for w in words if rng.random() < 0.5))
        for subset in subsets:
            image = fs.device.crash_image(persist_words=subset)
            fs2, _ = recover(
                NvmDevice.from_image(bytes(image)), config=MgspConfig(**CONFIG_KW)
            )
            if fs2.volume.exists("b"):
                size = fs2.volume.lookup("b").size
                assert size in (0, 100), f"crash_after={crash_after}: b.size={size}"
                if size:
                    data = fs2.open("b").read(0, 100)
                    assert data == b"\x22" * 100
                    fs2.close_all() if hasattr(fs2, "close_all") else None
            # Idempotence: recovering the recovered image changes nothing.
            stable = bytes(fs2.device.crash_image(persist_words=()))
            fs3, _ = recover(
                NvmDevice.from_image(stable), config=MgspConfig(**CONFIG_KW)
            )
            assert bytes(fs3.device.crash_image(persist_words=())) == stable
    assert swept >= 5, swept
