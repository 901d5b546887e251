"""The page-native B+tree vs the node-materialising one it replaced.

``repro.db.btree`` promises more than equal results: the same
``Pager.read`` / ``write`` / ``allocate`` calls in the same order with
the same bytes, because the pager's LRU order and hit counts, the WAL
frames and every virtual-clock number downstream follow from them. The
machine drives both trees over recording pagers with a cache small
enough to evict, and compares the call logs after every step.

The one intended difference is an insert that cannot fit: the oracle
notices after it has allocated (and perhaps written) pages, the tree
refuses before touching the pager. Both must raise ``DbError``; the tree
must leave its pager exactly as it was, and both transactions are then
rolled back so the comparison can go on.

The tree also hangs a cell directory on each cached image it searched
and *derives* the directory of a rewritten leaf instead of decoding it.
After every step each directory in the cache is compared with a fresh
decode of its image by the oracle's parser.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import btree_oracle
from repro.db import btree
from repro.db.pager import Pager
from repro.errors import DbError
from repro.fs import Ext4Dax

KEYS = 600
KEY_PADS = (0, 30, 400)  # 400-byte separators: ~9 per interior page
VALUE_SIZES = (0, 8, 100, 900, 1300)
PRELOAD_STEP = 150  # preload=3 builds a tree of height >= 3


def key_of(i: int) -> bytes:
    return b"%05d" % i + b"k" * KEY_PADS[i % len(KEY_PADS)]


def value_of(size: int, fill: int) -> bytes:
    return bytes([fill]) * size


class RecordingPager(Pager):
    """A pager that logs every page access the tree makes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = []

    def read(self, page_no):
        self.calls.append(("read", page_no))
        return super().read(page_no)

    def write(self, page_no, data):
        self.calls.append(("write", page_no, bytes(data)))
        super().write(page_no, data)

    def allocate(self):
        page_no = super().allocate()
        self.calls.append(("allocate", page_no))
        return page_no


def make_pair(cache_pages: int):
    """(page-native tree, oracle tree), each on its own committed file."""
    trees = []
    for module in (btree, btree_oracle):
        fs = Ext4Dax(device_size=64 << 20)
        pager = RecordingPager(fs.create("db", 16 << 20), cache_pages=cache_pages)
        trees.append(module.BTree(pager, pager.allocate(), initialize=True))
        pager.flush_to_file()
    return trees


def pager_state(pager: Pager):
    return (pager.page_count, set(pager.dirty), dict(pager.before_images))


def height(tree) -> int:
    """Levels from the root to a leaf (reads through the pager)."""
    levels, page_no = 1, tree.root_page
    while True:
        page = tree.pager.read(page_no)
        kind, nkeys, extra = btree_oracle._HDR.unpack_from(page, 0)
        if kind == btree.LEAF:
            return levels
        # First child: the first cell's, or the rightmost of an empty page.
        first_cell = btree_oracle._INT_CELL.unpack_from(page, btree_oracle._HDR.size)
        page_no = first_cell[1] if nkeys else extra
        levels += 1


def decoded(page):
    """(keys, offs, children) of *page* as the oracle's parser sees it."""
    node = btree_oracle._Node.parse(bytes(page))
    offs = [btree_oracle._HDR.size]
    if node.kind == btree.LEAF:
        for key, value in zip(node.keys, node.values):
            offs.append(offs[-1] + btree_oracle._LEAF_CELL.size + len(key) + len(value))
        return node.keys, offs, None
    for key in node.keys:
        offs.append(offs[-1] + btree_oracle._INT_CELL.size + len(key))
    return node.keys, offs, node.children


class Differential:
    """Runs one operation on both trees and compares everything seen."""

    def __init__(self, cache_pages: int) -> None:
        self.tree, self.oracle = make_pair(cache_pages)
        self.check_logs()

    def check_logs(self) -> None:
        new, old = self.tree.pager, self.oracle.pager
        assert new.calls == old.calls
        assert (new.cache_hits, new.cache_misses) == (old.cache_hits, old.cache_misses)
        assert list(new.cache) == list(old.cache)  # same LRU order
        for page_no, image in new.cache.items():
            if image.index is not None:  # decoded on a search, or derived from one
                assert image.index == decoded(image), f"stale directory on page {page_no}"
        new.calls.clear()
        old.calls.clear()

    def both(self, op):
        """``op(tree)`` on each side; returns the (equal) result."""
        got, want = op(self.tree), op(self.oracle)
        assert got == want
        self.check_logs()
        return got

    def insert(self, key: bytes, value: bytes) -> None:
        before = pager_state(self.tree.pager)
        try:
            self.tree.insert(key, value)
        except DbError:
            assert pager_state(self.tree.pager) == before, "refused insert touched the pager"
            with pytest.raises(DbError):  # late, after it allocated
                self.oracle.insert(key, value)
            self.tree.pager.calls.clear()
            self.oracle.pager.calls.clear()
            self.both(lambda t: t.pager.rollback())
            return
        self.oracle.insert(key, value)
        self.check_logs()

    def preload(self, count: int, seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(count):
            self.insert(key_of(rng.randrange(KEYS)), value_of(rng.choice(VALUE_SIZES), 0x41))


class BTreeDifferentialMachine(RuleBasedStateMachine):
    @initialize(preload=st.integers(0, 3), cache_pages=st.sampled_from([4, 16, 10_000]))
    def setup(self, preload, cache_pages):
        self.d = Differential(cache_pages)
        self.d.preload(preload * PRELOAD_STEP, seed=preload)

    @rule(
        i=st.integers(0, KEYS - 1),
        size=st.sampled_from(VALUE_SIZES),
        fill=st.integers(0, 255),
    )
    def upsert(self, i, size, fill):
        self.d.insert(key_of(i), value_of(size, fill))

    @rule(lo=st.integers(0, KEYS - 1), count=st.integers(1, 40), size=st.sampled_from(VALUE_SIZES))
    def insert_run(self, lo, count, size):
        for i in range(lo, min(lo + count, KEYS)):
            self.d.insert(key_of(i), value_of(size, i & 0xFF))

    @rule(i=st.integers(0, KEYS - 1))
    def delete(self, i):
        self.d.both(lambda t: t.delete(key_of(i)))

    @rule(i=st.integers(0, KEYS - 1))
    def get(self, i):
        self.d.both(lambda t: t.get(key_of(i)))

    @rule(
        start=st.one_of(st.none(), st.just(b""), st.integers(0, KEYS).map(key_of)),
        end=st.one_of(st.none(), st.integers(0, KEYS).map(key_of)),
    )
    def scan(self, start, end):
        self.d.both(lambda t: list(t.scan(start, end)))

    @rule()
    def count(self):
        self.d.both(lambda t: t.count())

    @rule()
    def commit(self):
        self.d.both(lambda t: t.pager.flush_to_file())

    @rule()
    def rollback(self):
        self.d.both(lambda t: t.pager.rollback())

    @invariant()
    def same_pager_state(self):
        assert pager_state(self.d.tree.pager) == pager_state(self.d.oracle.pager)


TestBTreeDifferentialMachine = BTreeDifferentialMachine.TestCase
TestBTreeDifferentialMachine.settings = settings(
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def test_largest_preload_splits_the_root_of_an_interior_tree():
    """The machine's ``preload=3`` start really covers leaf, interior
    and root splits: the tree it builds is at least three levels deep."""
    d = Differential(cache_pages=16)
    d.preload(3 * PRELOAD_STEP, seed=3)
    assert d.both(height) >= 3
    assert d.both(lambda t: t.count()) > 100


def test_refused_insert_is_seen_by_the_machine_driver():
    """A leaf split whose right half cannot fit a page: the tree refuses
    up front, the oracle allocates first; ``Differential.insert`` checks
    both raise and the tree's pager is untouched."""
    d = Differential(cache_pages=16)
    for i in range(4):
        d.insert(b"a%d" % i, b"")
    for i in range(3):
        d.insert(b"b%d" % i, b"v" * 1300)
    pages = d.tree.pager.page_count
    d.insert(b"b3", b"v" * 1300)  # right half: four 1300-byte cells
    assert d.tree.pager.page_count == d.oracle.pager.page_count == pages
    assert d.both(lambda t: t.get(b"b3")) is None


def test_scan_suspended_mid_leaf_keeps_its_snapshot():
    """TPC-C delivery's pattern: the consumer of a scan rewrites the leaf
    the generator is standing on. The oracle parsed the leaf when it was
    loaded; the tree walks the cached image, which the pager replaces
    and never edits -- so both go on yielding the leaf as it was."""
    d = Differential(cache_pages=16)
    old, new = b"old" * 100, b"new" * 100  # a dozen cells per leaf
    for i in range(0, 240, 2):
        d.insert(b"%04d" % i, old)

    def deliver(tree):
        seen, rewritten = [], set()
        for n, (key, value) in enumerate(tree.scan(b"0010", b"0200")):
            seen.append((key, value, key in rewritten))
            if n < 40:
                ahead = b"%04d" % (int(key[:4]) + 4)  # two cells on
                tree.delete(key)
                tree.insert(key + b"+", new)  # lands just after the cursor
                tree.insert(ahead, new)
                rewritten.add(ahead)
        return seen

    seen = d.both(deliver)
    # Rewritten before the scan reached them: still old within the leaf
    # the scan was standing on, new once it crossed into the next leaf.
    assert {value for _, value, rewritten in seen if rewritten} == {old, new}
    assert all(value == old for _, value, rewritten in seen if not rewritten)
    assert not any(key.endswith(b"+") for key, _, _ in seen)  # behind the cursor's leaf image
    d.both(lambda t: list(t.scan()))
