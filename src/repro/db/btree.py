"""B+tree over the pager, searched and edited in the pager's page bytes.

- Leaf pages hold (key, value) cells and a next-leaf link for scans.
- Interior pages hold separator keys and child page numbers.
- The root page number is stable: a root split rewrites the root as an
  interior page in place, so the catalog never needs updating.
- Deletes are lazy (no rebalancing); pages shrink but stay linked, which
  is sufficient for the benchmark workloads and keeps the code honest
  about what it does.

Page layout (cells are packed in key order, the tail is zero padding)::

    leaf:     u8 type(1)  u16 nkeys  u32 next_leaf  [u16 klen u16 vlen key value]*
    interior: u8 type(2)  u16 nkeys  u32 rightmost  [u16 klen u32 child key]*

Nothing is decoded into a node object. A lookup walks the cells of the
``bytearray`` that :meth:`Pager.read` returns with ``unpack_from``,
comparing key slices, and builds ``bytes`` only for what it returns. A
mutation splices the new image around the one cell it touches
(``page[:pos] + cell + page[pos:end]`` under a repacked header); a split
cuts that image at the ``nkeys // 2`` cell boundary. The tree keeps no
state between calls: a page reference is a stable snapshot because the
pager replaces cached images and never edits them (see :class:`Pager`).

The layout, the bytes handed to :meth:`Pager.write` and the order of
``read`` / ``write`` / ``allocate`` calls are pinned: the pager's LRU
order and hit counts, the WAL frames and so every virtual-clock number
follow from them (``tests/test_db_btree_differential.py`` holds them to
the node-materialising implementation in ``tests/btree_oracle.py``).

An insert that cannot fit is refused with :class:`DbError` before the
pager is touched: a cell too large for a page of its own, or a leaf
split whose half would overflow. One case is still caught late: interior
pages split by key *count*, so separators of adversarially skewed sizes
can overflow a half after the leaf below has been written. Closing it
needs split-by-bytes, which moves the page layout.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from repro.db.pager import PAGE_SIZE, Pager
from repro.errors import DbError

LEAF = 1
INTERIOR = 2

_HDR = struct.Struct("<BHI")
_LEAF_CELL = struct.Struct("<HH")
_INT_CELL = struct.Struct("<HI")

_CELLS = _HDR.size  # offset of the first cell
_SPLIT_LIMIT = PAGE_SIZE - 64
_MAX_CELL_PAYLOAD = PAGE_SIZE - _CELLS - _LEAF_CELL.size


def _skip(buf, kind: int, pos: int, count: int) -> int:
    """Offset *count* cells past *pos*."""
    if kind == LEAF:
        for _ in range(count):
            klen, vlen = _LEAF_CELL.unpack_from(buf, pos)
            pos += 4 + klen + vlen
    else:
        for _ in range(count):
            pos += 6 + _INT_CELL.unpack_from(buf, pos)[0]
    return pos


def _leaf_seek(page, nkeys: int, key: bytes) -> Tuple[int, int, int]:
    """(index, offset, size) of the first cell whose key is >= *key*.

    *size* is that cell's byte length when its key equals *key*, else 0;
    past the last cell the offset is the end of the cells."""
    pos = _CELLS
    for idx in range(nkeys):
        klen, vlen = _LEAF_CELL.unpack_from(page, pos)
        body = pos + 4
        cell_key = page[body : body + klen]
        if cell_key >= key:
            return idx, pos, (4 + klen + vlen if cell_key == key else 0)
        pos = body + klen + vlen
    return nkeys, pos, 0


def _child_seek(page, nkeys: int, rightmost: int, key: bytes) -> Tuple[int, int, int]:
    """(child, index, offset) of the first cell whose key is > *key*, or
    the rightmost child and the end of the cells."""
    pos = _CELLS
    for idx in range(nkeys):
        klen, child = _INT_CELL.unpack_from(page, pos)
        body = pos + 6
        if page[body : body + klen] > key:
            return child, idx, pos
        pos = body + klen
    return rightmost, nkeys, pos


class BTree:
    """One keyed tree rooted at a fixed page."""

    def __init__(self, pager: Pager, root_page: int, initialize: bool = False) -> None:
        self.pager = pager
        self.root_page = root_page
        if initialize:
            pager.write(root_page, _HDR.pack(LEAF, 0, 0))

    # -- helpers ------------------------------------------------------------

    def _load(self, page_no: int):
        """(page, kind, nkeys, next_leaf or rightmost child)."""
        page = self.pager.read(page_no)
        kind, nkeys, extra = _HDR.unpack_from(page, 0)
        if kind != LEAF and kind != INTERIOR:
            raise DbError(f"corrupt page: unknown node type {kind}")
        return page, kind, nkeys, extra

    def _leaf_for(self, key: bytes):
        """Descend to the leaf owning *key*: (page_no, page, nkeys, next_leaf)."""
        page_no = self.root_page
        page, kind, nkeys, extra = self._load(page_no)
        while kind == INTERIOR:
            page_no = _child_seek(page, nkeys, extra, key)[0]
            page, kind, nkeys, extra = self._load(page_no)
        return page_no, page, nkeys, extra

    # -- point ops -----------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        _, page, nkeys, _ = self._leaf_for(key)
        _, pos, size = _leaf_seek(page, nkeys, key)
        if not size:
            return None
        return bytes(page[pos + 4 + len(key) : pos + size])

    def insert(self, key: bytes, value: bytes) -> None:
        """Upsert *key*."""
        if len(key) + len(value) > _MAX_CELL_PAYLOAD:
            raise DbError(
                f"cell of {len(key)}-byte key + {len(value)}-byte value "
                f"does not fit a {PAGE_SIZE}-byte page"
            )
        split = self._insert_rec(self.root_page, key, value)
        if split is not None:
            sep, right_page = split
            # Root split: rewrite the root in place as an interior node.
            page, kind, nkeys, _ = self._load(self.root_page)
            left_page = self.pager.allocate()
            self.pager.write(left_page, bytes(page[: _skip(page, kind, _CELLS, nkeys)]))
            self.pager.write(
                self.root_page,
                _HDR.pack(INTERIOR, 1, right_page) + _INT_CELL.pack(len(sep), left_page) + sep,
            )

    def _insert_rec(self, page_no: int, key: bytes, value: bytes):
        page, kind, nkeys, extra = self._load(page_no)
        if kind == LEAF:
            idx, pos, old = _leaf_seek(page, nkeys, key)
            # An upsert drops the *old* bytes of the cell it replaces.
            end = _skip(page, LEAF, pos + old, nkeys - idx - (old > 0))
            if not old:
                nkeys += 1
            cells = (
                page[_CELLS:pos] + _LEAF_CELL.pack(len(key), len(value)) + key + value
                + page[pos + old : end]
            )
        else:
            child, idx, pos = _child_seek(page, nkeys, extra, key)
            split = self._insert_rec(child, key, value)
            if split is None:
                return None
            # The new separator takes over the split child; the cell (or
            # rightmost link) that pointed at it now points at the new page.
            sep, right_page = split
            cells = page[_CELLS:pos] + _INT_CELL.pack(len(sep), child) + sep
            if idx < nkeys:
                end = _skip(page, INTERIOR, pos, nkeys - idx)
                klen = _INT_CELL.unpack_from(page, pos)[0]
                cells += _INT_CELL.pack(klen, right_page) + page[pos + 6 : end]
            else:
                extra = right_page
            nkeys += 1
        if _CELLS + len(cells) > _SPLIT_LIMIT:
            return self._split(page_no, kind, nkeys, extra, cells)
        self.pager.write(page_no, _HDR.pack(kind, nkeys, extra) + cells)
        return None

    def _split(self, page_no: int, kind: int, nkeys: int, extra: int, cells):
        """Write *cells* as two pages cut at cell ``nkeys // 2``; returns
        (separator, new right page). A leaf keeps every cell and links
        left -> right -> old next; an interior page moves the middle key
        up and its child becomes the left page's rightmost."""
        mid = nkeys // 2
        cut = _skip(cells, kind, 0, mid)
        if kind == LEAF:
            klen = _LEAF_CELL.unpack_from(cells, cut)[0]
            sep = bytes(cells[cut + 4 : cut + 4 + klen])
            rest, right_keys = cut, nkeys - mid
        else:
            klen, left_extra = _INT_CELL.unpack_from(cells, cut)
            rest, right_keys = cut + 6 + klen, nkeys - mid - 1
            sep = bytes(cells[cut + 6 : rest])
        overflow = _CELLS + max(cut, len(cells) - rest)
        if overflow > PAGE_SIZE:
            raise DbError(f"node serialization overflow: {overflow} bytes")
        right_page = self.pager.allocate()
        if kind == LEAF:
            left_extra = right_page
        self.pager.write(right_page, _HDR.pack(kind, right_keys, extra) + cells[rest:])
        self.pager.write(page_no, _HDR.pack(kind, mid, left_extra) + cells[:cut])
        return sep, right_page

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns whether it existed (lazy, no merging)."""
        page_no, page, nkeys, next_leaf = self._leaf_for(key)
        idx, pos, size = _leaf_seek(page, nkeys, key)
        if not size:
            return False
        end = _skip(page, LEAF, pos + size, nkeys - idx - 1)
        self.pager.write(
            page_no,
            _HDR.pack(LEAF, nkeys - 1, next_leaf) + page[_CELLS:pos] + page[pos + size : end],
        )
        return True

    # -- scans ---------------------------------------------------------------------

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) with start <= key < end."""
        _, page, nkeys, next_leaf = self._leaf_for(start or b"")
        idx, pos, _ = _leaf_seek(page, nkeys, start) if start else (0, _CELLS, 0)
        while True:
            for _ in range(idx, nkeys):
                klen, vlen = _LEAF_CELL.unpack_from(page, pos)
                body = pos + 4
                key = bytes(page[body : body + klen])
                if end is not None and key >= end:
                    return
                pos = body + klen + vlen
                yield (key, bytes(page[body + klen : pos]))
            if not next_leaf:
                return
            page, _, nkeys, next_leaf = self._load(next_leaf)
            idx, pos = 0, _CELLS

    def count(self) -> int:
        return sum(1 for _ in self.scan())
