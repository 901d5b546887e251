"""WAL, pager, and B+tree corner cases beyond the basics."""

from __future__ import annotations

import random

import pytest

from repro.db import Database
from repro.db.btree import BTree
from repro.db.pager import PAGE_SIZE, Pager
from repro.db.wal import WriteAheadLog
from repro.errors import DbError
from repro.fs import Ext4Dax


def dax():
    return Ext4Dax(device_size=96 << 20)


class TestWalCycles:
    def test_many_checkpoint_cycles_with_fresh_salts(self):
        fs = dax()
        db_file = fs.create("d", 1 << 20)
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        for cycle in range(10):
            wal.commit({cycle: bytes([cycle + 1]) * PAGE_SIZE})
            wal.checkpoint(db_file)
        for cycle in range(10):
            assert db_file.read(cycle * PAGE_SIZE, 1) == bytes([cycle + 1])
        assert wal.salt == 11

    def test_log_grows_across_commits_until_checkpoint(self):
        fs = dax()
        wal = WriteAheadLog(fs.create("w", 4 << 20))
        start = wal.tail
        for i in range(5):
            wal.commit({i: b"x" * PAGE_SIZE})
        assert wal.tail > start + 5 * PAGE_SIZE
        wal.checkpoint(fs.create("d", 1 << 20))
        assert wal.tail < PAGE_SIZE

    def test_recover_after_multiple_epochs(self):
        """Frames from an old salt interleaved on disk with the fresh
        epoch must not replay."""
        fs = dax()
        db_file = fs.create("d", 1 << 20)
        wal_handle = fs.create("w", 1 << 20)
        wal = WriteAheadLog(wal_handle)
        wal.commit({1: (b"OLD" * 1366)[:PAGE_SIZE]})
        wal.checkpoint(db_file)
        wal.commit({2: (b"NEW" * 1366)[:PAGE_SIZE]})
        fs.device.drain()
        recovered = WriteAheadLog.recover(fs.open("w"), db_file)
        assert db_file.read(2 * PAGE_SIZE, 3) == b"NEW"
        assert db_file.read(PAGE_SIZE, 3) == b"OLD"  # from the checkpoint
        assert recovered.salt > wal.salt - 1

    def test_oversized_frame_rejected(self):
        fs = dax()
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        with pytest.raises(DbError):
            wal.commit({0: b"x" * (PAGE_SIZE + 1)})

    def test_empty_commit_is_noop(self):
        fs = dax()
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        tail = wal.tail
        wal.commit({})
        assert wal.tail == tail

    def test_checkpoint_empty_log(self):
        fs = dax()
        wal = WriteAheadLog(fs.create("w", 1 << 20))
        assert wal.checkpoint(fs.create("d", 1 << 20)) == 0


class TestBtreeLimits:
    def test_oversized_value_raises_cleanly(self):
        fs = dax()
        pager = Pager(fs.create("d", 1 << 20))
        tree = BTree(pager, pager.allocate(), initialize=True)
        with pytest.raises(DbError):
            tree.insert(b"k", b"v" * (PAGE_SIZE + 100))

    @staticmethod
    def _pager_state(pager):
        return (pager.page_count, set(pager.dirty), dict(pager.before_images))

    @pytest.mark.parametrize(
        "key, value",
        [
            (b"k", b"x" * 5000),  # overflowed only after _split_leaf had allocated
            (b"k", b"x" * 70_000),  # was a bare struct.error from the u16 length
            (b"k" * 70_000, b""),
            (b"k" * 2100, b"x" * 2100),  # each fits a u16 and a page, the cell does not
        ],
        ids=["value-5000", "value-70000", "key-70000", "cell-4200"],
    )
    def test_oversized_insert_in_open_txn_leaves_pager_untouched(self, key, value):
        db = Database(dax(), journal_mode="wal")
        table = db.create_table("t")
        table.insert((1,), ("committed",))
        db.begin()
        table.tree.insert(b"earlier", b"statement")
        before = self._pager_state(db.pager)
        with pytest.raises(DbError):
            table.tree.insert(key, value)
        assert self._pager_state(db.pager) == before
        db.commit()
        assert table.tree.get(key) is None
        assert table.tree.get(b"earlier") == b"statement"
        assert table.get((1,)) == ("committed",)

    def test_leaf_split_with_overflowing_half_refused_before_allocate(self):
        """Split-by-count puts the four large cells in the right half."""
        db = Database(dax(), journal_mode="wal")
        tree = db.create_table("t").tree
        db.begin()
        for i in range(4):
            tree.insert(b"a%d" % i, b"")
        for i in range(3):
            tree.insert(b"b%d" % i, b"v" * 1300)
        before = self._pager_state(db.pager)
        with pytest.raises(DbError):
            tree.insert(b"b3", b"v" * 1300)
        assert self._pager_state(db.pager) == before
        db.commit()
        assert tree.count() == 7 and tree.get(b"b3") is None

    def test_largest_cell_that_fits_a_page_is_accepted(self):
        fs = dax()
        pager = Pager(fs.create("d", 4 << 20))
        tree = BTree(pager, pager.allocate(), initialize=True)
        room = PAGE_SIZE - 7 - 4  # page header, leaf cell header
        tree.insert(b"key", b"v" * (room - 3))
        tree.insert(b"a", b"small")
        assert tree.get(b"key") == b"v" * (room - 3)
        assert [k for k, _ in tree.scan()] == [b"a", b"key"]
        with pytest.raises(DbError):
            tree.insert(b"key", b"v" * (room - 2))

    def test_value_near_page_limit(self):
        fs = dax()
        pager = Pager(fs.create("d", 4 << 20))
        tree = BTree(pager, pager.allocate(), initialize=True)
        big = b"v" * 3800
        tree.insert(b"a", big)
        tree.insert(b"b", big)
        assert tree.get(b"a") == big and tree.get(b"b") == big

    def test_duplicate_heavy_upserts_stable(self):
        fs = dax()
        pager = Pager(fs.create("d", 4 << 20))
        tree = BTree(pager, pager.allocate(), initialize=True)
        for i in range(3000):
            tree.insert(b"same", str(i).encode())
        assert tree.get(b"same") == b"2999"
        assert tree.count() == 1

    def test_empty_key(self):
        fs = dax()
        pager = Pager(fs.create("d", 1 << 20))
        tree = BTree(pager, pager.allocate(), initialize=True)
        tree.insert(b"", b"empty-key")
        assert tree.get(b"") == b"empty-key"
        assert next(iter(tree.scan()))[0] == b""

    def test_interleaved_delete_insert_scan(self):
        fs = dax()
        pager = Pager(fs.create("d", 8 << 20))
        tree = BTree(pager, pager.allocate(), initialize=True)
        rng = random.Random(4)
        model = {}
        for step in range(2000):
            k = f"{rng.randrange(400):04d}".encode()
            if rng.random() < 0.5:
                tree.insert(k, b"v%d" % step)
                model[k] = b"v%d" % step
            else:
                tree.delete(k)
                model.pop(k, None)
            if step % 500 == 499:
                assert dict(tree.scan()) == model


class TestDatabaseLimits:
    def test_wal_capacity_respected_via_checkpoints(self):
        fs = dax()
        db = Database(fs, journal_mode="wal", wal_capacity=2 << 20, checkpoint_limit=256 << 10)
        t = db.create_table("t")
        for i in range(800):
            t.insert((i,), ("x" * 200,))
        assert db.wal.tail <= 2 << 20
        db.close()

    def test_many_tables(self):
        fs = dax()
        db = Database(fs, journal_mode="off")
        tables = [db.create_table(f"t{i}") for i in range(20)]
        for i, table in enumerate(tables):
            table.insert((1,), (i,))
        db.close()
        db2 = Database(fs, journal_mode="off")
        for i in range(20):
            assert db2.table(f"t{i}").get((1,)) == (i,)

    def test_catalog_overflow_rejected(self):
        fs = dax()
        db = Database(fs, journal_mode="off")
        with pytest.raises(Exception):
            for i in range(500):
                db.create_table(f"long-table-name-{i:05d}")

    def test_autocommit_statement_failure_rolls_back(self):
        fs = dax()
        db = Database(fs, journal_mode="wal")
        t = db.create_table("t")
        with pytest.raises(DbError):
            t.insert((1,), ("x" * (PAGE_SIZE + 10),))
        assert not db.in_tx  # state machine recovered
        t.insert((1,), ("ok",))
        assert t.get((1,)) == ("ok",)
