"""B+tree over the pager: point ops, splits, scans, fuzz vs dict."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.registry import make_fs
from repro.db import Database, btree
from repro.db.btree import BTree
from repro.db.pager import PAGE_SIZE, Pager
from repro.errors import DbError
from repro.fs import Ext4Dax
from repro.workloads.tpcc import TpccDriver


def make_tree(cache_pages=10_000):
    fs = Ext4Dax(device_size=64 << 20)
    handle = fs.create("db", 16 << 20)
    pager = Pager(handle, cache_pages=cache_pages)
    root = pager.allocate()
    return BTree(pager, root, initialize=True), pager


def k(i):
    return f"key-{i:08d}".encode()


class TestPointOps:
    def test_insert_get(self):
        tree, _ = make_tree()
        tree.insert(b"a", b"1")
        tree.insert(b"b", b"2")
        assert tree.get(b"a") == b"1"
        assert tree.get(b"b") == b"2"
        assert tree.get(b"c") is None

    def test_upsert_overwrites(self):
        tree, _ = make_tree()
        tree.insert(b"a", b"1")
        tree.insert(b"a", b"2")
        assert tree.get(b"a") == b"2"
        assert tree.count() == 1

    def test_delete(self):
        tree, _ = make_tree()
        tree.insert(b"a", b"1")
        assert tree.delete(b"a") is True
        assert tree.get(b"a") is None
        assert tree.delete(b"a") is False

    def test_empty_tree(self):
        tree, _ = make_tree()
        assert tree.get(b"x") is None
        assert tree.count() == 0
        assert list(tree.scan()) == []


class TestSplits:
    def test_many_inserts_force_splits(self):
        tree, pager = make_tree()
        n = 2000
        for i in range(n):
            tree.insert(k(i), b"v" * 50)
        assert pager.page_count > 10  # splits happened
        for i in range(0, n, 97):
            assert tree.get(k(i)) == b"v" * 50
        assert tree.count() == n

    def test_root_page_is_stable(self):
        tree, _ = make_tree()
        root = tree.root_page
        for i in range(2000):
            tree.insert(k(i), b"v" * 60)
        assert tree.root_page == root  # root split rewrote in place

    def test_reverse_insertion_order(self):
        tree, _ = make_tree()
        for i in reversed(range(1000)):
            tree.insert(k(i), str(i).encode())
        assert [key for key, _ in tree.scan()] == [k(i) for i in range(1000)]

    def test_large_values(self):
        tree, _ = make_tree()
        for i in range(30):
            tree.insert(k(i), bytes([i]) * 1500)
        for i in range(30):
            assert tree.get(k(i)) == bytes([i]) * 1500


class TestScans:
    def test_full_scan_sorted(self):
        tree, _ = make_tree()
        keys = [f"{x:04d}".encode() for x in random.Random(1).sample(range(5000), 500)]
        for key in keys:
            tree.insert(key, b"v")
        assert [key for key, _ in tree.scan()] == sorted(keys)

    def test_range_scan(self):
        tree, _ = make_tree()
        for i in range(100):
            tree.insert(k(i), str(i).encode())
        got = [key for key, _ in tree.scan(k(10), k(20))]
        assert got == [k(i) for i in range(10, 20)]

    def test_scan_from_missing_start(self):
        tree, _ = make_tree()
        tree.insert(b"b", b"1")
        tree.insert(b"d", b"2")
        assert [key for key, _ in tree.scan(b"c")] == [b"d"]

    def test_scan_crosses_leaf_boundaries(self):
        tree, _ = make_tree()
        n = 3000
        for i in range(n):
            tree.insert(k(i), b"x" * 40)
        assert sum(1 for _ in tree.scan(k(100), k(2900))) == 2800


class TestFuzz:
    def test_against_dict(self):
        tree, _ = make_tree()
        rng = random.Random(9)
        model = {}
        for step in range(3000):
            key = f"{rng.randrange(800):05d}".encode()
            action = rng.random()
            if action < 0.6:
                val = str(step).encode()
                tree.insert(key, val)
                model[key] = val
            elif action < 0.8:
                assert tree.get(key) == model.get(key)
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        assert dict(tree.scan()) == model

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=30), st.binary(max_size=100)),
            max_size=300,
        )
    )
    def test_insert_scan_property(self, pairs):
        tree, _ = make_tree()
        model = {}
        for key, val in pairs:
            tree.insert(key, val)
            model[key] = val
        assert dict(tree.scan()) == model
        assert [key for key, _ in tree.scan()] == sorted(model)


class TestEvictionSafety:
    def test_tree_survives_tiny_cache(self):
        """Pages evicted and re-read from the file must parse back."""
        fs = Ext4Dax(device_size=64 << 20)
        handle = fs.create("db", 16 << 20)
        pager = Pager(handle, cache_pages=4)
        root = pager.allocate()
        tree = BTree(pager, root, initialize=True)
        for i in range(500):
            tree.insert(k(i), b"v" * 30)
            pager.flush_to_file()  # commit so clean pages may be evicted
            handle.fsync()
        for i in range(0, 500, 41):
            assert tree.get(k(i)) == b"v" * 30


def leaf_page(cells, nkeys=None):
    """A leaf image of *cells* ((key, value) pairs); *nkeys* overrides the header."""
    body = b"".join(btree._LEAF_CELL.pack(len(k), len(v)) + k + v for k, v in cells)
    return btree._HDR.pack(btree.LEAF, len(cells) if nkeys is None else nkeys, 0) + body


class TestCellDirectory:
    """The directory ``_index`` hangs on a cached image: built once per
    image, derived by copy on a leaf rewrite, kept through an eviction
    while the page's bytes are unchanged, gone with the image."""

    def test_second_search_reuses_the_directories(self):
        tree, pager = make_tree()
        for i in range(400):
            tree.insert(k(i), b"v" * 50)
        pager.flush_to_file()
        assert tree.get(k(123)) == b"v" * 50
        before = {no: image.index for no, image in pager.cache.items() if image.index}
        assert tree.root_page in before and len(before) >= 2  # root and a leaf, at least
        assert tree.get(k(123)) == b"v" * 50
        for no, index in before.items():
            assert pager.cache[no].index is index  # the same objects, not rebuilt

    def test_suspended_scan_keeps_its_snapshot_and_lists(self):
        """The leaf a scan stands on is upserted, deleted from and split
        under it: the scan goes on yielding the image it started on, and
        that image's directory lists are the ones it had (derive by copy)."""
        tree, pager = make_tree()
        for i in range(20):
            tree.insert(k(i), b"old")
        scan = tree.scan()
        assert next(scan) == (k(0), b"old")
        image = pager.cache[tree.root_page]
        keys, offs, _ = image.index
        snapshot = (list(keys), list(offs))
        tree.insert(k(5), b"new value, another size")
        tree.delete(k(6))
        for i in range(20, 200):  # splits the leaf, then the root
            tree.insert(k(i), b"x" * 60)
        assert pager.cache[tree.root_page] is not image
        assert list(scan) == [(k(i), b"old") for i in range(1, 20)]
        assert image.index[0] is keys and image.index[1] is offs
        assert (keys, offs) == snapshot
        assert tree.get(k(5)) == b"new value, another size" and tree.get(k(6)) is None

    def test_reread_and_rolled_back_pages_start_undecoded(self):
        fs = Ext4Dax(device_size=64 << 20)
        pager = Pager(fs.create("db", 16 << 20), cache_pages=4)
        tree = BTree(pager, pager.allocate(), initialize=True)
        for i in range(300):
            tree.insert(k(i), b"v" * 30)
            pager.flush_to_file()  # clean pages may be evicted
        evicted = next(no for no in range(1, pager.page_count) if no not in pager.cache)
        # a split half nothing searched: evicted undecoded, read back undecoded
        # (an evicted page keeps its directory while its bytes are unchanged)
        assert pager.read(evicted).index is None
        assert tree.get(k(7)) is not None  # decodes the root and k(7)'s leaf
        leaf = next(no for no, image in pager.cache.items() if no != tree.root_page and image.index)
        first_key = pager.cache[leaf].index[0][0]
        tree.insert(first_key, b"rewritten")
        assert pager.cache[leaf].index is not None  # derived with the rewrite
        pager.rollback()
        assert pager.cache[leaf].index is None
        assert tree.get(first_key) == b"v" * 30

    @staticmethod
    def _evicted_decoded_leaf():
        """(tree, pager, page_no, image) of k(0)'s leaf: searched, so its
        image has a directory, then pushed out of the cache."""
        fs = Ext4Dax(device_size=64 << 20)
        pager = Pager(fs.create("db", 16 << 20), cache_pages=4)
        tree = BTree(pager, pager.allocate(), initialize=True)
        for i in range(300):
            tree.insert(k(i), b"v" * 30)
            pager.flush_to_file()  # clean pages may be evicted
        leaf = tree._leaf_for(k(0))[0]
        image = pager.cache[leaf]
        assert image.index is not None
        for i in range(299, 0, -1):  # the other leaves push it out
            if leaf not in pager.cache:
                break
            tree.get(k(i))
        assert leaf not in pager.cache
        return tree, pager, leaf, image

    def test_evicted_page_read_back_unchanged_keeps_its_directory(self):
        tree, pager, leaf, image = self._evicted_decoded_leaf()
        index = image.index
        misses = pager.cache_misses
        assert tree.get(k(0)) == b"v" * 30
        assert pager.cache_misses == misses + 1  # still a miss: the page is fetched
        assert pager.cache[leaf] is image and image.index is index

    def test_page_rewritten_while_evicted_starts_undecoded(self):
        tree, pager, leaf, image = self._evicted_decoded_leaf()
        pager.handle.write(leaf * PAGE_SIZE, bytes(image).replace(b"v" * 30, b"w" * 30, 1))
        assert pager.read(leaf).index is None
        assert tree.get(k(0)) == b"w" * 30 and tree.get(k(1)) == b"v" * 30
        assert pager.cache[leaf].index is not None

    def test_page_corrupted_while_evicted_is_a_typed_error(self):
        tree, pager, leaf, _ = self._evicted_decoded_leaf()
        pager.handle.write(leaf * PAGE_SIZE + 1, (900).to_bytes(2, "little"))  # nkeys
        with pytest.raises(DbError, match="corrupt page"):
            tree.get(k(0))
        assert pager.cache[leaf].index is None

    @pytest.mark.parametrize(
        "image",
        [
            leaf_page([(b"k%02d" % i, b"v") for i in range(10)], nkeys=900),
            leaf_page([(b"a", b"v"), (b"b", b"v")])[:-6]
            + btree._LEAF_CELL.pack(5000, 1) + b"b" + b"v",  # klen past the page
            btree._HDR.pack(btree.INTERIOR, 2, 9)
            + 2 * (btree._INT_CELL.pack(3, 7) + b"sep"),  # two equal separators
            leaf_page([(b"k", b"v" * 2000)], nkeys=2)
            + btree._LEAF_CELL.pack(1, 3000) + b"l",  # the last value ends past the page
        ],
        ids=["nkeys-overstated", "klen-past-page", "equal-separators", "cell-past-page"],
    )
    def test_corrupt_page_is_a_typed_error(self, image):
        tree, pager = make_tree()
        tree.insert(b"a", b"1")
        pager.write(tree.root_page, image)
        with pytest.raises(DbError, match="corrupt page"):
            tree.get(b"zzz")
        with pytest.raises(DbError, match="corrupt page"):
            tree.insert(b"zzz", b"1")
        assert pager.cache[tree.root_page].index is None  # nothing half-decoded kept


class _CountingCell:
    """Stands in for a cell ``Struct`` and counts its ``unpack_from`` calls."""

    def __init__(self, inner):
        self.inner, self.size, self.pack, self.decodes = inner, inner.size, inner.pack, 0

    def unpack_from(self, buffer, offset=0):
        self.decodes += 1
        return self.inner.unpack_from(buffer, offset)


class TestDecodeCost:
    def test_tpcc_decodes_a_page_once_per_image(self, monkeypatch):
        """Deterministic cost gate on the benchmark's ``tpcc_db`` shape
        (seed 42, 100 transactions): 97.6 cell decodes per transaction
        when a directory outlives eviction while its page's bytes do,
        431 when each of the 1,108 misses came back undecoded, ~3,500
        when every search re-walked its page. A directory is built only
        for an image that is in the cache without one: left so by the
        load, a miss, a split half (two per allocation, the root split's
        pair included) or a rollback."""
        fs = make_fs("MGSP", device_size=256 << 20)
        db = Database(fs, name="tpcc.db", journal_mode="wal", capacity=40 << 20, cache_pages=128)
        driver = TpccDriver(db, seed=42)
        driver.create_schema()
        driver.load()
        leaf, interior = _CountingCell(btree._LEAF_CELL), _CountingCell(btree._INT_CELL)
        monkeypatch.setattr(btree, "_LEAF_CELL", leaf)
        monkeypatch.setattr(btree, "_INT_CELL", interior)
        builds, decode = [], btree._index
        monkeypatch.setattr(btree, "_index", lambda page, *a: builds.append(1) or decode(page, *a))
        rolled_back, rollback = [], db.pager.rollback
        monkeypatch.setattr(
            db.pager, "rollback", lambda: rolled_back.append(len(db.pager.before_images)) or rollback()
        )
        misses, pages = db.pager.cache_misses, db.pager.page_count
        undecoded = sum(image.index is None for image in db.pager.cache.values())
        txns = 100
        for _ in range(txns):
            driver.run_transaction()
        assert (leaf.decodes + interior.decodes) / txns <= 150
        undecoded += (
            db.pager.cache_misses - misses + 2 * (db.pager.page_count - pages) + sum(rolled_back)
        )
        assert 0 < len(builds) <= undecoded
