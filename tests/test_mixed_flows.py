"""Interleavings of every MGSP flow: writes, txns, mmap, checkpoint,
growth, crash — the combinations no single-feature test exercises."""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover, verify_file
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CAP = 1 << 20


@pytest.fixture
def fs():
    return MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))


class TestInterleavings:
    def test_txn_then_checkpoint_then_txn(self, fs):
        f = fs.create("x", CAP)
        with fs.begin_transaction(f) as txn:
            txn.write(0, b"one")
        f.checkpoint()
        with fs.begin_transaction(f) as txn:
            txn.write(3, b"two")
        assert f.read(0, 6) == b"onetwo"
        assert verify_file(f).ok

    def test_mmap_and_write_coexist(self, fs):
        f = fs.create("x", CAP)
        mm = f.mmap()
        f.write(0, b"api")
        mm[3:6] = b"map"
        assert f.read(0, 6) == b"apimap"
        assert mm[0:6] == b"apimap"

    def test_plain_writes_excluded_during_txn(self, fs):
        """A staged transaction owns the handle's write path: a plain
        (or mmap) store would plan against staged bitmap words and leak
        them into its own commit — so it is rejected until resolution."""
        from repro.errors import TransactionError

        f = fs.create("x", CAP)
        txn = fs.begin_transaction(f)
        txn.write(0, b"staged")
        mm = f.mmap()
        with pytest.raises(TransactionError):
            mm[100:103] = b"now"
        with pytest.raises(TransactionError):
            f.write(100, b"now")
        with pytest.raises(TransactionError):
            fs.begin_transaction(f)  # no nested transactions either
        txn.rollback()
        f.write(100, b"now")  # fine after resolution
        assert f.read(100, 3) == b"now"
        assert f.read(0, 6) != b"staged"

    def test_growth_inside_txn(self, fs):
        f = fs.create("x", CAP)
        f.write(0, b"small")
        h0 = f.tree.height
        with fs.begin_transaction(f) as txn:
            txn.write(500_000, b"far")
        assert f.tree.height >= h0
        assert f.read(500_000, 3) == b"far"
        assert f.read(0, 5) == b"small"
        assert verify_file(f).ok

    def test_checkpoint_mid_fuzz_preserves_everything(self, fs):
        f = fs.create("x", CAP)
        rng = random.Random(3)
        ref = bytearray(CAP)
        for i in range(300):
            off = rng.randrange(0, CAP - 1)
            ln = min(rng.choice([64, 4096, 30_000]), CAP - off)
            payload = bytes([rng.randrange(1, 255)]) * ln
            f.write(off, payload)
            ref[off : off + ln] = payload
            if i % 60 == 59:
                f.checkpoint()
            if i % 45 == 44:
                with fs.begin_transaction(f) as txn:
                    txn.write(off, payload)  # idempotent txn write
        assert f.read(0, f.size) == bytes(ref[: f.size])
        assert verify_file(f).ok

    def test_crash_between_txn_and_plain_write(self, fs):
        f = fs.create("x", CAP)
        fs.device.drain()
        with fs.begin_transaction(f) as txn:
            txn.write(0, b"txn-committed")
        fs.device.attach(CrashPlan(crash_after=3))
        try:
            f.write(50_000, b"maybe")
        except CrashRequested:
            pass
        image = fs.device.crash_image(rng=random.Random(1))
        fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16))
        f2 = fs2.open("x")
        assert f2.read(0, 13) == b"txn-committed"
        assert f2.read(50_000, 5) in (b"", b"maybe", b"\0" * 5)

    def test_two_files_with_independent_txns(self, fs):
        a = fs.create("a", CAP)
        b = fs.create("b", CAP)
        ta = fs.begin_transaction(a)
        tb = fs.begin_transaction(b)
        ta.write(0, b"AAAA")
        tb.write(0, b"BBBB")
        ta.commit()
        tb.rollback()
        assert a.read(0, 4) == b"AAAA"
        assert b.read(0, 4) == b""
        assert verify_file(a).ok and verify_file(b).ok

    def test_reopen_after_everything(self, fs):
        f = fs.create("x", CAP)
        f.write(0, b"plain")
        with fs.begin_transaction(f) as txn:
            txn.write(10, b"txn")
        f.checkpoint()
        f.write(20, b"more")
        f.close()
        f2 = fs.open("x")
        assert f2.read(0, 5) == b"plain"
        assert f2.read(10, 3) == b"txn"
        assert f2.read(20, 4) == b"more"

    def test_rdonly_handle_sees_prior_writes_not_txn_api(self, fs):
        from repro.fsapi.interface import OpenFlags

        f = fs.create("x", CAP)
        f.write(0, b"public")
        f.close()
        ro = fs.open("x", OpenFlags.RDONLY)
        assert ro.read(0, 6) == b"public"
        txn = fs.begin_transaction(ro)
        with pytest.raises(Exception):
            txn.write(0, b"nope")
        txn.rollback()
