"""TPC-C semantic conformance beyond throughput."""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.registry import make_fs
from repro.db import Database
from repro.workloads.tpcc import CUSTOMERS_PER_DISTRICT, DISTRICTS, ITEMS, TpccDriver


@pytest.fixture(scope="module")
def warm_driver():
    fs = make_fs("Ext4-DAX", device_size=192 << 20)
    db = Database(fs, name="tpcc.db", journal_mode="wal", capacity=40 << 20)
    driver = TpccDriver(db)
    driver.create_schema()
    driver.load()
    for _ in range(40):
        driver.run_transaction()
    return db, driver


class TestLoad:
    def test_cardinalities(self, warm_driver):
        db, _ = warm_driver
        assert db.table("warehouse").count() == 1
        assert db.table("district").count() == DISTRICTS
        assert db.table("customer").count() == DISTRICTS * CUSTOMERS_PER_DISTRICT
        assert db.table("item").count() == ITEMS
        assert db.table("stock").count() == ITEMS

    def test_customer_name_index_exists(self, warm_driver):
        db, _ = warm_driver
        customer = db.table("customer")
        assert "by_last" in customer.indexes
        matches = list(customer.lookup_by("by_last", ("LAST3",)))
        assert matches and all(row[1] == "LAST3" for row in matches)


class TestTransactionEffects:
    def test_district_counters_match_orders(self, warm_driver):
        db, driver = warm_driver
        for d in range(1, DISTRICTS + 1):
            next_oid = db.table("district").get((1, d))[3]
            assert next_oid == driver.next_order_id[d]
            stored = sum(1 for _ in db.table("orders").scan_prefix((1, d)))
            assert stored == next_oid - 1

    def test_order_lines_complete(self, warm_driver):
        db, driver = warm_driver
        for d in range(1, DISTRICTS + 1):
            for o in range(1, driver.next_order_id[d]):
                order = db.table("orders").get((1, d, o))
                lines = list(db.table("order_line").scan_prefix((1, d, o)))
                assert order is not None
                assert len(lines) == order[1], (d, o)
                assert all(1 <= row[0] <= ITEMS for _, row in lines)

    def test_new_order_queue_subset_of_orders(self, warm_driver):
        db, driver = warm_driver
        for key, _ in db.table("new_order").scan_all():
            pass  # scanning must not raise
        for d in range(1, DISTRICTS + 1):
            pending = sum(1 for _ in db.table("new_order").scan_prefix((1, d)))
            total = driver.next_order_id[d] - 1
            delivered = driver.next_delivery[d] - 1
            assert pending == total - delivered, d

    def test_warehouse_ytd_equals_history_sum(self, warm_driver):
        db, _ = warm_driver
        ytd = db.table("warehouse").get((1,))[2]
        paid = sum(row[0] for _, row in db.table("history").scan_all())
        assert ytd == pytest.approx(300000.0 + paid)

    def test_delivered_orders_marked(self, warm_driver):
        db, driver = warm_driver
        for d in range(1, DISTRICTS + 1):
            for o in range(1, driver.next_delivery[d]):
                order = db.table("orders").get((1, d, o))
                if order is not None:
                    assert order[2] == 1  # carrier assigned

    def test_stock_order_counts_monotone(self, warm_driver):
        db, _ = warm_driver
        ordered = 0
        for _, row in db.table("stock").scan_all():
            assert row[1] >= 0 and row[2] >= 0  # ytd, order_cnt
            ordered += row[2]
        # Every order line incremented exactly one stock order counter.
        total_lines = db.table("order_line").count()
        assert ordered == total_lines


class TestGoldenImage:
    """The storage engine's bytes, not just its answers.

    The benchmark's ``tpcc_db`` configuration (MGSP, WAL, a page cache
    smaller than the dataset), seed 42, schema + load + 50 transactions.
    The digests and counters were captured at commit 0bb6f0e, where the
    B+tree still materialised a node per page load: any drift in page
    layout, in the bytes handed to ``Pager.write``, or in the order of
    pager calls (LRU order, so hits and misses) changes them, and with
    them every virtual-clock number the e2e benchmark reports.
    """

    DB_SHA256 = "1a7bc7acb56bf9f589771f39eb901f2aa3a06897b16d0090abf7e18e63b5ff76"
    WAL_SHA256 = "0dab53d7b2e883c0fc327c99094aee3e571cf6f8d5f0161f72e8b5b2f7508ab3"
    CACHE_HITS, CACHE_MISSES = 27467, 551

    def test_tpcc_prefix_files_and_cache_counts(self):
        fs = make_fs("MGSP", device_size=256 << 20)
        db = Database(
            fs, name="tpcc.db", journal_mode="wal", capacity=40 << 20, cache_pages=128
        )
        driver = TpccDriver(db, seed=42)
        driver.create_schema()
        driver.load()
        for _ in range(50):
            driver.run_transaction()
        digests = [
            hashlib.sha256(handle.read(0, handle.size)).hexdigest()
            for handle in (db.handle, db.wal.handle)
        ]
        assert digests == [self.DB_SHA256, self.WAL_SHA256]
        assert (db.pager.cache_hits, db.pager.cache_misses) == (
            self.CACHE_HITS,
            self.CACHE_MISSES,
        )
