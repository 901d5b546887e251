"""Database engine: pager tx semantics, WAL, journal modes, crashes."""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.db import Database
from repro.db.pager import PAGE_SIZE, Pager
from repro.db.wal import WriteAheadLog
from repro.errors import CrashRequested, DbError, SchemaError, TransactionError
from repro.fs import Ext4Dax
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice


def dax_fs():
    return Ext4Dax(device_size=96 << 20)


class TestPager:
    def test_read_write_roundtrip(self):
        fs = dax_fs()
        pager = Pager(fs.create("f", 1 << 20))
        pager.write(3, b"page three")
        assert bytes(pager.read(3)[:10]) == b"page three"

    def test_rollback_restores_before_images(self):
        fs = dax_fs()
        pager = Pager(fs.create("f", 1 << 20))
        pager.write(0, b"original")
        pager.take_dirty()
        pager.write(0, b"modified")
        pager.rollback()
        assert bytes(pager.read(0)[:8]) == b"original"

    def test_rollback_discards_fresh_pages(self):
        fs = dax_fs()
        pager = Pager(fs.create("f", 1 << 20))
        pager.write(0, b"a")
        pager.take_dirty()
        before = pager.page_count
        pager.allocate()
        pager.allocate()
        pager.rollback()
        assert pager.page_count == before

    def test_take_dirty_clears_tracking(self):
        fs = dax_fs()
        pager = Pager(fs.create("f", 1 << 20))
        pager.write(1, b"x")
        dirty = pager.take_dirty()
        assert list(dirty) == [1]
        assert pager.take_dirty() == {}

    def test_oversized_page_rejected(self):
        fs = dax_fs()
        pager = Pager(fs.create("f", 1 << 20))
        with pytest.raises(DbError):
            pager.write(0, b"x" * (PAGE_SIZE + 1))

    def test_eviction_prefers_clean_pages(self):
        fs = dax_fs()
        pager = Pager(fs.create("f", 1 << 20), cache_pages=3)
        pager.write(0, b"dirty")
        for i in range(1, 10):
            pager.write(i, b"x")
            pager.take_dirty()  # mark committed -> clean, evictable
            pager.flush_to_file({i: b"x"})
        pager.write(0, b"dirty")  # still intact
        assert 0 in pager.cache

    def test_write_of_uncached_page_takes_before_image_from_the_wal(self):
        """A page whose latest committed image is still only in the log:
        ``write`` without a prior ``read`` must remember *that* image,
        not the stale one in the DB file -- and it is not a read."""
        fs = dax_fs()
        handle = fs.create("f", 1 << 20)
        handle.write(0, b"OLD".ljust(PAGE_SIZE, b"\0"))
        pager = Pager(handle)
        pager.miss_source = {0: b"NEW".ljust(PAGE_SIZE, b"\0")}.get
        pager.write(0, b"TXN")
        assert (pager.cache_hits, pager.cache_misses) == (0, 0)
        pager.rollback()
        assert bytes(pager.read(0)[:3]) == b"NEW"


class TestWal:
    def test_commit_then_recover(self):
        fs = dax_fs()
        db_file = fs.create("d", 1 << 20)
        wal_file = fs.create("w", 1 << 20)
        wal = WriteAheadLog(wal_file)
        wal.commit({2: b"two" * 100, 5: b"five" * 100})
        # Simulate reopen: replay into the db file.
        recovered = WriteAheadLog.recover(fs.open("w"), db_file)
        assert db_file.read(2 * PAGE_SIZE, 6) == b"twotwo"
        assert recovered.frames_since_checkpoint == {}

    def test_checkpoint_pushes_and_resets(self):
        fs = dax_fs()
        db_file = fs.create("d", 1 << 20)
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        wal.commit({1: b"one" * 50})
        count = wal.checkpoint(db_file)
        assert count == 1
        assert db_file.read(PAGE_SIZE, 3) == b"one"
        assert wal.tail < PAGE_SIZE

    def test_stale_salt_ignored_after_checkpoint(self):
        fs = dax_fs()
        db_file = fs.create("d", 1 << 20)
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        wal.commit({1: b"AAA" * 100})
        wal.checkpoint(db_file)
        wal.commit({2: b"BBB" * 100})
        recovered = WriteAheadLog.recover(fs.open("w"), db_file)
        # Only the new-salt frame replays; the old one was checkpointed
        # already (and its frame bytes are stale).
        assert db_file.read(2 * PAGE_SIZE, 3) == b"BBB"

    def test_uncommitted_frames_not_replayed(self):
        fs = dax_fs()
        db_file = fs.create("d", 1 << 20)
        wal_file = fs.create("w", 1 << 20)
        wal = WriteAheadLog(wal_file)
        wal.commit({1: b"ok" * 100})
        # Append a frame with no commit record (torn transaction).
        import struct
        from repro.db.wal import _FRAME, FRAME_MAGIC
        from repro.util import checksum as crc

        img = (b"torn" * 1024)[:PAGE_SIZE]
        frame = _FRAME.pack(FRAME_MAGIC, wal.salt, 7, crc(img)) + img
        wal_file.write(wal.tail, frame)
        WriteAheadLog.recover(fs.open("w"), db_file)
        assert db_file.read(PAGE_SIZE, 2) == b"ok"
        assert db_file.read(7 * PAGE_SIZE, 4) != b"torn"

    def test_lookup_serves_committed_frames(self):
        fs = dax_fs()
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        wal.commit({3: b"findme" + b"\0" * (PAGE_SIZE - 6)})
        assert wal.lookup(3)[:6] == b"findme"
        assert wal.lookup(4) is None


class TestDatabase:
    def test_journal_mode_validation(self):
        with pytest.raises(DbError):
            Database(dax_fs(), journal_mode="rollback")

    def test_autocommit_per_statement(self):
        db = Database(dax_fs(), journal_mode="wal")
        t = db.create_table("t")
        t.insert((1,), ("a",))
        assert db.committed_txns >= 1

    def test_explicit_transaction(self):
        db = Database(dax_fs(), journal_mode="wal")
        t = db.create_table("t")
        db.begin()
        t.insert((1,), ("a",))
        t.insert((2,), ("b",))
        db.commit()
        assert t.get((1,)) == ("a",)
        assert t.get((2,)) == ("b",)

    def test_rollback_undoes_changes(self):
        db = Database(dax_fs(), journal_mode="wal")
        t = db.create_table("t")
        t.insert((1,), ("keep",))
        db.begin()
        t.insert((2,), ("discard",))
        t.update((1,), ("clobbered",))
        db.rollback()
        assert t.get((1,)) == ("keep",)
        assert t.get((2,)) is None

    def test_nested_begin_rejected(self):
        db = Database(dax_fs())
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()

    def test_commit_without_begin_rejected(self):
        db = Database(dax_fs())
        with pytest.raises(TransactionError):
            db.commit()

    def test_duplicate_table_rejected(self):
        db = Database(dax_fs())
        db.create_table("t")
        with pytest.raises(SchemaError):
            db.create_table("t")

    def test_missing_table_rejected(self):
        db = Database(dax_fs())
        with pytest.raises(SchemaError):
            db.table("ghost")

    @pytest.mark.parametrize("journal_mode", ["wal", "off"])
    def test_reopen_preserves_data(self, journal_mode):
        fs = dax_fs()
        db = Database(fs, journal_mode=journal_mode)
        t = db.create_table("t")
        for i in range(200):
            t.insert((i,), (f"row{i}", i * 1.5))
        db.close()
        db2 = Database(fs, journal_mode=journal_mode)
        t2 = db2.table("t")
        for i in range(0, 200, 17):
            assert t2.get((i,)) == (f"row{i}", i * 1.5)

    def test_scan_prefix(self):
        db = Database(dax_fs())
        t = db.create_table("t")
        for d in (1, 2):
            for c in range(5):
                t.insert((d, c), (d * 100 + c,))
        rows = [row for _, row in t.scan_prefix((1,))]
        assert rows == [(100 + c,) for c in range(5)]

    def test_wal_reopen_replays_unCheckpointed(self):
        fs = dax_fs()
        db = Database(fs, journal_mode="wal", checkpoint_limit=1 << 30)  # never checkpoint
        t = db.create_table("t")
        t.insert((1,), ("wal-only",))
        # Simulate a process exit WITHOUT close(): data lives in the WAL.
        fs.device.drain()
        db2 = Database(fs, journal_mode="wal")
        assert db2.table("t").get((1,)) == ("wal-only",)


class TestDatabaseCrashOnMgsp:
    def test_wal_commit_crash_recovers_all_or_nothing(self):
        """Crash MGSP mid WAL-commit; after FS recovery + DB reopen the
        transaction is atomic."""
        failures = 0
        for crash_after in range(5, 400, 45):
            fs = MgspFilesystem(device_size=96 << 20, config=MgspConfig(degree=16))
            db = Database(fs, journal_mode="wal")
            t = db.create_table("t")
            t.insert((0,), ("base",))
            fs.device.drain()
            fs.device.attach(CrashPlan(crash_after))
            crashed = False
            try:
                db.begin()
                t.insert((1,), ("x" * 500,))
                t.insert((2,), ("y" * 500,))
                db.commit()
            except CrashRequested:
                crashed = True
            if not crashed:
                continue
            image = fs.device.crash_image(rng=random.Random(crash_after))
            fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16))
            db2 = Database(fs2, journal_mode="wal")
            t2 = db2.table("t")
            assert t2.get((0,)) == ("base",)
            one, two = t2.get((1,)), t2.get((2,))
            if not ((one is None and two is None) or (one is not None and two is not None)):
                failures += 1
        assert failures == 0


class TestTransactionalDdl:
    def test_rolled_back_create_table_is_forgotten(self):
        """``create_table`` inside a rolled-back transaction used to stay
        in ``db.tables`` while the pager gave its root back, so the next
        table was handed the same root and the catalog mapped both."""
        fs = dax_fs()
        db = Database(fs, journal_mode="wal")
        t1 = db.create_table("t1")
        t1.insert((1,), ("one",))
        db.begin()
        t2 = db.create_table("t2")
        t2.insert((1,), ("ghost",))
        db.rollback()
        assert "t2" not in db.tables and "t2" not in db._catalog
        assert db.table("t1") is t1  # handed out before the transaction: same object
        t3 = db.create_table("t3")
        t3.insert((3,), ("three",))
        assert db._catalog == {"t1": 1, "t3": 2}
        db.close()
        db2 = Database(fs, journal_mode="wal")
        assert set(db2.tables) == {"t1", "t3"}
        assert db2.table("t3").tree.root_page != db2.table("t1").tree.root_page
        assert [row for _, row in db2.table("t3").scan_all()] == [("three",)]
        assert db2.table("t1").get((1,)) == ("one",)

    def test_rolled_back_create_index_is_forgotten(self):
        db = Database(dax_fs(), journal_mode="wal")
        t = db.create_table("t")
        t.insert((1,), ("a", "x"))
        db.begin()
        t.create_index("by_name", (0,))
        assert list(t.lookup_by("by_name", ("a",))) == [("a", "x")]
        db.rollback()
        assert t.indexes == {} and list(db._catalog) == ["t"]
        t.insert((2,), ("b", "y"))  # maintains no index that no longer exists
        t.create_index("by_name", (0,))
        assert list(t.lookup_by("by_name", ("b",))) == [("b", "y")]

    def test_committed_ddl_survives_a_later_rollback_and_close(self):
        fs = dax_fs()
        db = Database(fs, journal_mode="wal")
        db.begin()
        kept = db.create_table("kept")
        kept.create_index("by_v", (0,))
        db.commit()
        db.begin()
        db.create_table("dropped")
        db.close()  # rolls the open transaction back
        assert set(db.tables) == {"kept"} and "by_v" in kept.indexes
        db2 = Database(fs, journal_mode="wal")
        assert set(db2.tables) == {"kept"} and "by_v" in db2.table("kept").indexes

    def test_autocommit_catalog_overflow_leaves_nothing_behind(self):
        fs = dax_fs()
        db = Database(fs, journal_mode="wal")
        with pytest.raises(DbError, match="catalog page overflow"):
            for i in range(500):
                db.create_table(f"long-table-name-{i:05d}")
        refused = f"long-table-name-{i:05d}"
        assert refused not in db._catalog and refused not in db.tables
        assert not db.in_tx and not db.pager.dirty and not db.pager.before_images
        assert db.pager.page_count == 1 + len(db.tables)  # its root page was given back
        db.table("long-table-name-00000").insert((1,), ("still works",))
        db.close()
        assert set(Database(fs, journal_mode="wal").tables) == set(db.tables)
