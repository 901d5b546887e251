"""Lock-free metadata log: layout, claim/probe, checksum validation."""

from __future__ import annotations

import pytest

from repro.core.metalog import (
    ENTRY_SIZE,
    MAX_SLOTS,
    TXN_COMMIT,
    TXN_MEMBER,
    MetadataLog,
    MetaSlot,
)
from repro.errors import FsError
from repro.fsapi.layout import Region
from repro.nvm.device import NvmDevice


@pytest.fixture
def metalog(device):
    return MetadataLog(device, Region(4096, 4096 + 32 * ENTRY_SIZE), entries=32)


def slots(n, leaf=True):
    return [MetaSlot(ordinal=i, is_leaf=leaf, valid=not leaf, leaf_mask=0xF0 + i) for i in range(n)]


class TestSlots:
    def test_roundtrip(self):
        for slot in (
            MetaSlot(0, True, False, 0xFFFFFFFF),
            MetaSlot((1 << 28) - 1, False, True, 0),
            MetaSlot(12345, True, True, 0xABCD),
        ):
            assert MetaSlot.unpack(slot.pack()) == slot

    def test_pack_is_8_bytes(self):
        assert len(MetaSlot(1, True, False, 2).pack()) == 8


class TestWriteScan:
    def test_entry_roundtrip(self, metalog):
        metalog.write(3, file_id=7, length=100, gen=5, offset=4096, file_size=8192, slots=slots(4))
        (entry,) = metalog.scan()
        assert entry.index == 3
        assert entry.file_id == 7
        assert entry.length == 100
        assert entry.gen == 5
        assert entry.offset == 4096
        assert entry.file_size == 8192
        assert entry.slots == slots(4)

    def test_txn_flags_roundtrip(self, metalog):
        metalog.write(0, 1, 10, 1, 0, 10, slots(1))
        metalog.write(1, 1, 10, 2, 77, 10, slots(1), flags=TXN_MEMBER)
        metalog.write(2, 1, 10, 3, 77, 10, slots(1), flags=TXN_MEMBER | TXN_COMMIT)
        plain, member, commit = sorted(metalog.scan(), key=lambda e: e.index)
        assert not plain.is_txn_member and not plain.is_txn_commit
        assert member.is_txn_member and not member.is_txn_commit
        assert commit.is_txn_member and commit.is_txn_commit
        assert member.txn_id == commit.txn_id == 77
        assert commit.slots == slots(1)

    def test_retired_entry_invisible(self, metalog):
        metalog.write(0, 1, 10, 1, 0, 10, slots(1))
        metalog.retire(0)
        assert metalog.scan() == []

    def test_multiple_entries(self, metalog):
        metalog.write(0, 1, 10, 1, 0, 10, slots(1))
        metalog.write(5, 2, 20, 2, 0, 20, slots(2))
        found = {e.index for e in metalog.scan()}
        assert found == {0, 5}

    def test_too_many_slots_rejected(self, metalog):
        with pytest.raises(FsError):
            metalog.write(0, 1, 10, 1, 0, 10, slots(MAX_SLOTS + 1))

    def test_max_slots_fit_in_entry(self, metalog):
        metalog.write(0, 1, 10, 1, 0, 10, slots(MAX_SLOTS))
        (entry,) = metalog.scan()
        assert len(entry.slots) == MAX_SLOTS

    def test_small_entry_flushes_64_bytes(self, metalog, device):
        before = device.stats.stored_bytes
        metalog.write(0, 1, 10, 1, 0, 10, slots(3))
        assert device.stats.stored_bytes - before == 64

    def test_large_entry_flushes_128_bytes(self, metalog, device):
        before = device.stats.stored_bytes
        metalog.write(0, 1, 10, 1, 0, 10, slots(4))
        assert device.stats.stored_bytes - before == ENTRY_SIZE

    def test_torn_entry_rejected_by_checksum(self, metalog, device):
        metalog.write(0, 1, 10, 1, 0, 10, slots(2))
        # Corrupt one byte of the entry body behind the log's back.
        off = metalog.entry_offset(0) + 20
        raw = device.buffer.load(off, 1)
        device.buffer.store(off, bytes([raw[0] ^ 0xFF]))
        assert metalog.scan() == []

    def test_garbage_region_scans_empty(self, metalog):
        assert metalog.scan() == []


class TestClaim:
    def test_claim_release(self, metalog):
        idx = metalog.claim(thread_id=0)
        metalog.release(idx)
        assert metalog.claim(thread_id=0) == idx  # entry is free again

    def test_same_thread_hash_stable(self, metalog):
        a = metalog.claim(7)
        metalog.release(a)
        b = metalog.claim(7)
        assert a == b

    def test_linear_probing_past_busy(self, metalog):
        a = metalog.claim(7)
        b = metalog.claim(7)
        assert b == (a + 1) % metalog.entries

    def test_exhaustion(self, metalog):
        for i in range(metalog.entries):
            metalog.claim(i * 1000)
        with pytest.raises(FsError):
            metalog.claim(99)

    def test_region_too_small_rejected(self, device):
        with pytest.raises(FsError):
            MetadataLog(device, Region(0, ENTRY_SIZE), entries=2)
