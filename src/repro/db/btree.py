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

A page is decoded once per cached image, not once per search. The first
search of an image walks its cells and hangs a directory on it
(:func:`_index`): every key as ``bytes``, every cell's offset plus the
offset where the cells end, and on interior pages the child links with
the rightmost last. Lookups ``bisect`` the keys; a mutation splices the
new image around the one cell it touches (``page[:pos] + cell +
page[after:end]`` under a repacked header, offsets read from the
directory) and a split cuts it at the ``nkeys // 2`` offset.

The directory cannot go stale and is never invalidated: the pager
*replaces* a cached image on ``write`` / ``rollback`` and never edits it
(see :class:`Pager`), so a directory is exact for as long as its image
exists. Rollback and rewrite drop it with the image; eviction does not:
the pager keeps an evicted image and a miss re-adopts it, directory and
all, only when the bytes it fetched equal it. This lives in DRAM only
-- no byte the pager, the WAL or the file system sees moves. A rewrite
that fits its page knows the one cell it spliced, so it derives the new
image's directory from the old one rather than pay a decode per insert
of a run into one leaf; it builds *new* lists, because a scan suspended
mid-leaf is still walking the old ones. Split halves, rolled-back pages
and pages whose bytes changed while evicted are decoded on their next
search.

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
from bisect import bisect_left, bisect_right
from operator import ge
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


def _index(page, kind: int, nkeys: int, extra: int):
    """Decode *page*'s cell directory and hang it on the image:
    ``(keys, offs, children)`` with ``offs[i]`` the start of cell *i*,
    ``offs[nkeys]`` the end of the cells and ``children`` (``None`` on a
    leaf) ending in the rightmost link. ``bisect`` relies on what is
    checked here once: cells inside the page, keys strictly ascending."""
    raw, pos = bytes(page), _CELLS  # slicing bytes copies a key once, not twice
    keys, offs, children = [], [], None
    try:
        if kind == LEAF:
            for _ in range(nkeys):
                klen, vlen = _LEAF_CELL.unpack_from(raw, pos)
                offs.append(pos)
                pos += 4 + klen
                keys.append(raw[pos - klen : pos])
                pos += vlen
        else:
            children = []
            for _ in range(nkeys):
                klen, child = _INT_CELL.unpack_from(raw, pos)
                offs.append(pos)
                children.append(child)
                pos += 6 + klen
                keys.append(raw[pos - klen : pos])
            children.append(extra)
    except struct.error:  # a cell header at or past the end of the page
        pos = PAGE_SIZE + 1
    if pos > PAGE_SIZE:
        raise DbError(f"corrupt page: {nkeys} cells run past the page")
    if any(map(ge, keys, keys[1:])):
        raise DbError(f"corrupt page: {nkeys} keys not strictly ascending")
    offs.append(pos)
    page.index = keys, offs, children
    return page.index


def _spliced(keys, offs, idx: int, tail: int, new_keys, size: int):
    """``(keys, offs)`` of the image whose cells ``idx .. tail-1`` were
    replaced by one cell per *new_keys*, *size* bytes in all. Always new
    lists: a suspended scan may still be walking the old ones."""
    delta = offs[idx] + size - offs[tail]
    return (
        keys[:idx] + new_keys + keys[tail:],
        offs[: idx + len(new_keys)] + [off + delta for off in offs[tail:]],
    )


class BTree:
    """One keyed tree rooted at a fixed page."""

    def __init__(self, pager: Pager, root_page: int, initialize: bool = False) -> None:
        self.pager = pager
        self.root_page = root_page
        if initialize:
            pager.write(root_page, _HDR.pack(LEAF, 0, 0))

    # -- helpers ------------------------------------------------------------

    def _load(self, page_no: int):
        """(page, kind, next_leaf or rightmost child, keys, offs, children)."""
        page = self.pager.read(page_no)
        kind, nkeys, extra = _HDR.unpack_from(page, 0)
        if kind != LEAF and kind != INTERIOR:
            raise DbError(f"corrupt page: unknown node type {kind}")
        keys, offs, children = page.index or _index(page, kind, nkeys, extra)
        return page, kind, extra, keys, offs, children

    def _leaf_for(self, key: bytes):
        """Descend to the leaf owning *key*: (page_no, page, next_leaf, keys, offs)."""
        page_no = self.root_page
        page, kind, extra, keys, offs, children = self._load(page_no)
        while kind == INTERIOR:
            page_no = children[bisect_right(keys, key)]
            page, kind, extra, keys, offs, children = self._load(page_no)
        return page_no, page, extra, keys, offs

    def _rewrite(self, page_no: int, kind: int, extra: int, cells, index) -> None:
        """Write a page that fits and hand its image the derived *index*."""
        self.pager.write(page_no, _HDR.pack(kind, len(index[0]), extra) + cells)
        self.pager.cache[page_no].index = index  # dirty, so not evicted

    # -- point ops -----------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        _, page, _, keys, offs = self._leaf_for(key)
        idx = bisect_left(keys, key)
        if idx == len(keys) or keys[idx] != key:
            return None
        return bytes(page[offs[idx] + 4 + len(key) : offs[idx + 1]])

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
            page, _, _, _, offs, _ = self._load(self.root_page)
            left_page = self.pager.allocate()
            self.pager.write(left_page, bytes(page[: offs[-1]]))
            self.pager.write(
                self.root_page,
                _HDR.pack(INTERIOR, 1, right_page) + _INT_CELL.pack(len(sep), left_page) + sep,
            )

    def _insert_rec(self, page_no: int, key: bytes, value: bytes):
        page, kind, extra, keys, offs, children = self._load(page_no)
        if kind == LEAF:
            idx = bisect_left(keys, key)
            # An upsert drops the *old* bytes of the cell it replaces.
            tail = idx + (idx < len(keys) and keys[idx] == key)
            cell = _LEAF_CELL.pack(len(key), len(value)) + key + value
            cells = page[_CELLS : offs[idx]] + cell + page[offs[tail] : offs[-1]]
        else:
            idx = tail = bisect_right(keys, key)
            child = children[idx]
            split = self._insert_rec(child, key, value)
            if split is None:
                return None
            # The new separator (*key* from here on) takes over the split
            # child; the cell (or rightmost link) that pointed at it now
            # points at the new page.
            key, right_page = split
            cell = _INT_CELL.pack(len(key), child) + key
            cells = page[_CELLS : offs[idx]] + cell
            if idx < len(keys):
                cells += _INT_CELL.pack(len(keys[idx]), right_page) + page[offs[idx] + 6 : offs[-1]]
            else:
                extra = right_page
            children = children[: idx + 1] + [right_page] + children[idx + 1 :]
        index = _spliced(keys, offs, idx, tail, [key], len(cell)) + (children,)
        if _CELLS + len(cells) > _SPLIT_LIMIT:
            return self._split(page_no, kind, extra, cells, index)
        self._rewrite(page_no, kind, extra, cells, index)
        return None

    def _split(self, page_no: int, kind: int, extra: int, cells, index):
        """Write *cells* as two pages cut at cell ``nkeys // 2``; returns
        (separator, new right page). A leaf keeps every cell and links
        left -> right -> old next; an interior page moves the middle key
        up and its child becomes the left page's rightmost."""
        keys, offs, children = index
        nkeys = len(keys)
        mid = nkeys // 2
        cut = offs[mid] - _CELLS
        if kind == LEAF:
            rest, right_keys = cut, nkeys - mid
        else:
            left_extra = children[mid]
            rest, right_keys = offs[mid + 1] - _CELLS, nkeys - mid - 1
        overflow = _CELLS + max(cut, len(cells) - rest)
        if overflow > PAGE_SIZE:
            raise DbError(f"node serialization overflow: {overflow} bytes")
        right_page = self.pager.allocate()
        if kind == LEAF:
            left_extra = right_page
        self.pager.write(right_page, _HDR.pack(kind, right_keys, extra) + cells[rest:])
        self.pager.write(page_no, _HDR.pack(kind, mid, left_extra) + cells[:cut])
        return keys[mid], right_page

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns whether it existed (lazy, no merging)."""
        page_no, page, next_leaf, keys, offs = self._leaf_for(key)
        idx = bisect_left(keys, key)
        if idx == len(keys) or keys[idx] != key:
            return False
        cells = page[_CELLS : offs[idx]] + page[offs[idx + 1] : offs[-1]]
        index = _spliced(keys, offs, idx, idx + 1, [], 0) + (None,)
        self._rewrite(page_no, LEAF, next_leaf, cells, index)
        return True

    # -- scans ---------------------------------------------------------------------

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) with start <= key < end."""
        _, page, next_leaf, keys, offs = self._leaf_for(start or b"")
        idx = bisect_left(keys, start) if start else 0
        while True:
            for idx in range(idx, len(keys)):
                key = keys[idx]
                if end is not None and key >= end:
                    return
                yield (key, bytes(page[offs[idx] + 4 + len(key) : offs[idx + 1]]))
            if not next_leaf:
                return
            page, _, next_leaf, keys, offs, _ = self._load(next_leaf)
            idx = 0

    def count(self) -> int:
        return sum(1 for _ in self.scan())
