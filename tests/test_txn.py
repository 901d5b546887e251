"""Failure-atomic multi-write transactions (the paper's future work)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.core.verify import verify_file
from repro.errors import CrashRequested, FsError, TransactionError
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CAP = 512 * 1024


def make_fs():
    return MgspFilesystem(device_size=64 << 20, config=MgspConfig(degree=16))


@pytest.fixture
def setup():
    fs = make_fs()
    f = fs.create("t", capacity=CAP)
    f.write(0, b"\x10" * 64 * 1024)  # committed base data
    fs.device.drain()
    return fs, f


class TestBasics:
    def test_commit_applies_all(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        txn.write(0, b"AAAA")
        txn.write(40_000, b"BBBB")
        txn.commit()
        assert f.read(0, 4) == b"AAAA"
        assert f.read(40_000, 4) == b"BBBB"

    def test_rollback_discards_all(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        txn.write(0, b"AAAA")
        txn.write(40_000, b"BBBB")
        txn.rollback()
        assert f.read(0, 4) == b"\x10" * 4
        assert f.read(40_000, 4) == b"\x10" * 4

    def test_txn_reads_own_writes(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        txn.write(100, b"inside")
        assert txn.read(100, 6) == b"inside"
        txn.rollback()
        assert f.read(100, 6) == b"\x10" * 6

    def test_repeated_writes_to_same_range(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        for value in (b"1111", b"2222", b"3333"):
            txn.write(0, value)
            assert txn.read(0, 4) == value
        txn.commit()
        assert f.read(0, 4) == b"3333"

    def test_repeated_writes_then_rollback(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        for value in (b"1111", b"2222"):
            txn.write(0, value)
        txn.rollback()
        assert f.read(0, 4) == b"\x10" * 4

    def test_growing_write_stages_size(self, setup):
        fs, f = setup
        old = f.size
        txn = fs.begin_transaction(f)
        txn.write(200_000, b"tail")
        assert f.size == 200_004
        txn.rollback()
        assert f.size == old
        txn2 = fs.begin_transaction(f)
        txn2.write(200_000, b"tail")
        txn2.commit()
        assert f.size == 200_004
        assert f.read(200_000, 4) == b"tail"

    def test_closed_txn_rejected(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.write(0, b"x")
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()

    def test_out_of_bounds_rejected(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        with pytest.raises(FsError):
            txn.write(CAP - 1, b"xx")
        txn.rollback()

    def test_context_manager(self, setup):
        fs, f = setup
        with fs.begin_transaction(f) as txn:
            txn.write(0, b"ctxm")
        assert f.read(0, 4) == b"ctxm"
        with pytest.raises(RuntimeError):
            with fs.begin_transaction(f) as txn:
                txn.write(0, b"oops")
                raise RuntimeError
        assert f.read(0, 4) == b"ctxm"

    def test_large_txn_chains_entries(self, setup):
        """More than 12 touched leaves -> multiple chained entries."""
        fs, f = setup
        txn = fs.begin_transaction(f)
        for i in range(40):
            txn.write(i * 4096, bytes([i + 1]) * 100)
        txn.commit()
        for i in range(40):
            assert f.read(i * 4096, 100) == bytes([i + 1]) * 100

    def test_state_verifies_after_txn(self, setup):
        fs, f = setup
        with fs.begin_transaction(f) as txn:
            for i in range(10):
                txn.write(i * 7000, b"z" * 300)
        report = verify_file(f)
        assert report.ok, report.errors

    def test_normal_writes_still_work_after_txn(self, setup):
        fs, f = setup
        with fs.begin_transaction(f) as txn:
            txn.write(0, b"txn!")
        f.write(4, b"norm")
        assert f.read(0, 8) == b"txn!norm"


class TestWriteBackRefusedWhileOpen:
    """A checkpoint or close writes every log back and clears the table;
    run under an open transaction it would make the staged words durable
    where ``rollback`` cannot reach them, so both are refused."""

    @pytest.mark.parametrize("method", ["checkpoint", "close"])
    def test_refused_before_touching_anything(self, method):
        fs = make_fs()
        f = fs.create("t", capacity=CAP)
        f.write(0, b"A" * 8192)
        txn = fs.begin_transaction(f)
        txn.write(100, b"B" * 300)
        stats = dict(vars(fs.device.stats))
        with pytest.raises(TransactionError):
            getattr(f, method)()
        assert vars(fs.device.stats) == stats
        assert not f.closed
        txn.rollback()
        assert f.read(100, 4) == b"AAAA"

    @pytest.mark.parametrize("method", ["checkpoint", "close"])
    def test_rollback_survives_write_back_and_crash(self, method):
        fs = make_fs()
        f = fs.create("t", capacity=CAP)
        f.write(0, b"A" * 8192)
        txn = fs.begin_transaction(f)
        txn.write(100, b"B" * 300)
        with pytest.raises(TransactionError):
            getattr(f, method)()
        txn.rollback()
        getattr(f, method)()  # allowed once the transaction is closed
        if f.closed:
            f = fs.open("t")
        assert f.read(100, 4) == b"AAAA"
        fs.device.drain()
        image = fs.device.crash_image(rng=random.Random(0), persist_probability=0.5)
        fs2, _ = recover(NvmDevice.from_image(image), config=MgspConfig(degree=16))
        assert fs2.open("t").read(0, 8192) == b"A" * 8192

    def test_commit_then_checkpoint_keeps_the_commit(self, setup):
        fs, f = setup
        txn = fs.begin_transaction(f)
        txn.write(100, b"B" * 300)
        with pytest.raises(TransactionError):
            f.checkpoint()
        txn.commit()
        f.checkpoint()
        assert f.read(100, 300) == b"B" * 300


class TestTxnCrashAtomicity:
    def _run(self, crash_after, n_writes=6, seed=5):
        fs = make_fs()
        f = fs.create("t", capacity=CAP)
        base = bytes([0x10]) * (64 * 1024)
        f.write(0, base)
        fs.device.drain()
        rng = random.Random(seed)
        writes = []
        for i in range(n_writes):
            off = rng.randrange(0, 60_000)
            writes.append((off, bytes([0xA0 + i]) * 500))
        fs.device.attach(CrashPlan(crash_after))
        crashed = False
        try:
            txn = fs.begin_transaction(f)
            for off, payload in writes:
                txn.write(off, payload)
            txn.commit()
        except CrashRequested:
            crashed = True
        image = fs.device.crash_image(rng=random.Random(crash_after), persist_probability=0.5)
        fs2, stats = recover(NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16))
        got = fs2.open("t").read(0, 64 * 1024)

        old = bytearray(base)
        new = bytearray(base)
        for off, payload in writes:
            new[off : off + len(payload)] = payload
        return crashed, got == bytes(old), got == bytes(new), stats

    def test_all_or_nothing_across_crash_points(self):
        saw_old = saw_new = 0
        for crash_after in range(2, 700, 41):
            crashed, is_old, is_new, _ = self._run(crash_after)
            if not crashed:
                saw_new += 1
                assert is_new
                continue
            assert is_old or is_new, f"torn transaction at crash point {crash_after}"
            saw_old += is_old
            saw_new += is_new
        assert saw_old > 0  # some crash points rolled back
        assert saw_new > 0  # some crash points committed

    def test_orphan_members_discarded(self):
        """Crash after member entries persist but before the commit
        entry: recovery must discard the orphans."""
        fs = make_fs()
        f = fs.create("t", capacity=CAP)
        f.write(0, b"\x10" * 64 * 1024)
        fs.device.drain()
        txn = fs.begin_transaction(f)
        for i in range(40):  # enough for several chained entries
            txn.write(i * 4096, bytes([i + 1]) * 100)
        # Crash inside commit, right after the first member entry's fence.
        fs.device.attach(CrashPlan(crash_after=0, kinds={"fence"}))
        with pytest.raises(CrashRequested):
            txn.commit()
        image = fs.device.crash_image(rng=random.Random(1), persist_probability=1.0)
        fs2, stats = recover(NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16))
        got = fs2.open("t").read(0, 64 * 1024)
        assert got == b"\x10" * 64 * 1024  # fully rolled back
        assert stats.entries_discarded >= 0


_IMAGE_DIGEST_SNIPPET = """
import hashlib
from repro.core import MgspFilesystem
fs = MgspFilesystem(device_size=16 << 20)
f = fs.create("t", capacity=1 << 20)
for i in range(5):
    with fs.begin_transaction(f) as txn:
        txn.write(i * 8192, b"a" * 100)
        txn.write(i * 8192 + 4096, b"b" * 100)
print(hashlib.sha256(fs.device.buffer.working).hexdigest())
"""


def test_nvm_image_after_transactions_ignores_hash_seed():
    """The metadata-log slot a commit claims is part of the NVM image;
    it must come from integer keys, never from a str-bearing hash()."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", _IMAGE_DIGEST_SNIPPET],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests
