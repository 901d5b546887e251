"""The node-materialising B+tree ``repro.db.btree`` is held to.

This is the implementation that lived in ``repro.db.btree`` until the
tree became page-native: every page load is parsed into a ``_Node`` of
Python lists and every store re-serializes the whole node. It is kept
verbatim (including the unused ``path`` in ``delete`` and the late
``node serialization overflow`` check) as the reference for
``tests/test_db_btree_differential.py``, which requires the same
``Pager.read`` / ``write`` / ``allocate`` sequence, the same bytes on
every write and the same results from both trees.

Page layout (serialized on every write)::

    leaf:     u8 type(1)  u16 nkeys  u32 next_leaf  [u16 klen u16 vlen key value]*
    interior: u8 type(2)  u16 nkeys  u32 rightmost  [u16 klen u32 child key]*
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.db.pager import PAGE_SIZE, Pager
from repro.errors import DbError

LEAF = 1
INTERIOR = 2

_HDR = struct.Struct("<BHI")
_LEAF_CELL = struct.Struct("<HH")
_INT_CELL = struct.Struct("<HI")

_LEAF_OVERHEAD = _HDR.size
_SPLIT_LIMIT = PAGE_SIZE - 64


class _Node:
    __slots__ = ("kind", "keys", "values", "children", "next_leaf")

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.keys: List[bytes] = []
        self.values: List[bytes] = []  # leaf only
        self.children: List[int] = []  # interior only: len(keys) + 1
        self.next_leaf = 0

    # -- (de)serialization ----------------------------------------------------

    @classmethod
    def parse(cls, raw: bytes) -> "_Node":
        kind, nkeys, extra = _HDR.unpack_from(raw, 0)
        node = cls(kind)
        pos = _HDR.size
        if kind == LEAF:
            node.next_leaf = extra
            for _ in range(nkeys):
                klen, vlen = _LEAF_CELL.unpack_from(raw, pos)
                pos += _LEAF_CELL.size
                node.keys.append(bytes(raw[pos : pos + klen]))
                pos += klen
                node.values.append(bytes(raw[pos : pos + vlen]))
                pos += vlen
        elif kind == INTERIOR:
            for _ in range(nkeys):
                klen, child = _INT_CELL.unpack_from(raw, pos)
                pos += _INT_CELL.size
                node.children.append(child)
                node.keys.append(bytes(raw[pos : pos + klen]))
                pos += klen
            node.children.append(extra)  # rightmost
        else:
            raise DbError(f"corrupt page: unknown node type {kind}")
        return node

    def serialize(self) -> bytes:
        out = bytearray()
        if self.kind == LEAF:
            out += _HDR.pack(LEAF, len(self.keys), self.next_leaf)
            for k, v in zip(self.keys, self.values):
                out += _LEAF_CELL.pack(len(k), len(v)) + k + v
        else:
            out += _HDR.pack(INTERIOR, len(self.keys), self.children[-1])
            for k, child in zip(self.keys, self.children[:-1]):
                out += _INT_CELL.pack(len(k), child) + k
        if len(out) > PAGE_SIZE:
            raise DbError(f"node serialization overflow: {len(out)} bytes")
        return bytes(out)

    def size(self) -> int:
        total = _HDR.size
        if self.kind == LEAF:
            for k, v in zip(self.keys, self.values):
                total += _LEAF_CELL.size + len(k) + len(v)
        else:
            for k in self.keys:
                total += _INT_CELL.size + len(k)
        return total


def _empty_leaf_bytes() -> bytes:
    return _HDR.pack(LEAF, 0, 0)


class BTree:
    """One keyed tree rooted at a fixed page."""

    def __init__(self, pager: Pager, root_page: int, initialize: bool = False) -> None:
        self.pager = pager
        self.root_page = root_page
        if initialize:
            pager.write(root_page, _empty_leaf_bytes())

    # -- helpers ------------------------------------------------------------

    def _load(self, page_no: int) -> _Node:
        return _Node.parse(bytes(self.pager.read(page_no)))

    def _store(self, page_no: int, node: _Node) -> None:
        self.pager.write(page_no, node.serialize())

    # -- point ops -----------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        node = self._load(self.root_page)
        while node.kind == INTERIOR:
            node = self._load(node.children[bisect_right(node.keys, key)])
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def insert(self, key: bytes, value: bytes) -> None:
        """Upsert *key*."""
        split = self._insert_rec(self.root_page, key, value)
        if split is not None:
            sep, right_page = split
            # Root split: rewrite the root in place as an interior node.
            old_root = self._load(self.root_page)
            left_page = self.pager.allocate()
            self._store(left_page, old_root)
            new_root = _Node(INTERIOR)
            new_root.keys = [sep]
            new_root.children = [left_page, right_page]
            self._store(self.root_page, new_root)

    def _insert_rec(self, page_no: int, key: bytes, value: bytes):
        node = self._load(page_no)
        if node.kind == LEAF:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
            else:
                node.keys.insert(idx, key)
                node.values.insert(idx, value)
            if node.size() > _SPLIT_LIMIT:
                return self._split_leaf(page_no, node)
            self._store(page_no, node)
            return None
        child_idx = bisect_right(node.keys, key)
        split = self._insert_rec(node.children[child_idx], key, value)
        if split is None:
            return None
        sep, right_page = split
        node.keys.insert(child_idx, sep)
        node.children.insert(child_idx + 1, right_page)
        if node.size() > _SPLIT_LIMIT:
            return self._split_interior(page_no, node)
        self._store(page_no, node)
        return None

    def _split_leaf(self, page_no: int, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(LEAF)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right_page = self.pager.allocate()
        node.next_leaf = right_page
        self._store(right_page, right)
        self._store(page_no, node)
        return (right.keys[0], right_page)

    def _split_interior(self, page_no: int, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(INTERIOR)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        right_page = self.pager.allocate()
        self._store(right_page, right)
        self._store(page_no, node)
        return (sep, right_page)

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns whether it existed (lazy, no merging)."""
        path = []
        page_no = self.root_page
        node = self._load(page_no)
        while node.kind == INTERIOR:
            page_no = node.children[bisect_right(node.keys, key)]
            node = self._load(page_no)
        idx = bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return False
        del node.keys[idx]
        del node.values[idx]
        self._store(page_no, node)
        return True

    # -- scans ---------------------------------------------------------------------

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) with start <= key < end."""
        node = self._load(self.root_page)
        key = start or b""
        while node.kind == INTERIOR:
            node = self._load(node.children[bisect_right(node.keys, key)])
        idx = bisect_left(node.keys, key) if start else 0
        while True:
            while idx < len(node.keys):
                k = node.keys[idx]
                if end is not None and k >= end:
                    return
                yield (k, node.values[idx])
                idx += 1
            if not node.next_leaf:
                return
            node = self._load(node.next_leaf)
            idx = 0

    def count(self) -> int:
        return sum(1 for _ in self.scan())
