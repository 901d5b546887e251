"""The recursive MGSP read walk ``ShadowLog.read_range`` is held to.

This is the walk that lived in ``repro.core.shadowlog`` until the read
became one iterative pass: a root-down ``_read_rec`` recursion that
resolves every non-leaf word through ``bitmap.effective_nonleaf``,
``_read_leaf`` finding each run of equal valid bits one shift at a
time, and ``_copy_from`` writing every load into a ``bytearray``. The
method bodies are kept verbatim as functions of the ``ShadowLog`` they
read (``self`` -> *shadow*), ``_read_clipped`` included, as the
reference for ``tests/test_read_walk_differential.py``: the same bytes,
the same ``visited`` count and the same ``device.load`` calls in the
same order.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import bitmap
from repro.core.radix import Node


def read_range(shadow, offset: int, length: int) -> Tuple[bytes, int]:
    """Assemble the latest bytes; returns (data, nodes_visited)."""
    out = bytearray(length)
    visited = _read_rec(
        shadow, shadow.tree.root, 0, shadow.inode.base, 0, offset, length, out, offset
    )
    return bytes(out), visited


def _read_rec(
    shadow,
    node: Optional[Node],
    path_gen: int,
    last_base: int,
    last_start: int,
    off: int,
    length: int,
    out: bytearray,
    out_base: int,
) -> int:
    if length <= 0:
        return 0
    if node is None:
        _copy_from(shadow, last_base + (off - last_start), off, length, out, out_base)
        return 0

    if node.level == 0:
        return 1 + _read_leaf(shadow, node, path_gen, last_base, last_start, off, length, out, out_base)

    is_root = node.level == shadow.tree.height and node.index == 0
    eff = bitmap.effective_nonleaf(node.word, path_gen)
    if eff.valid and not is_root:
        last_base, last_start = node.log_off, node.start
    elif is_root:
        last_base, last_start = shadow.inode.base, 0

    if not eff.existing:
        _copy_from(shadow, last_base + (off - last_start), off, length, out, out_base)
        return 1

    visited = 1
    child_size = shadow.tree.gran(node.level - 1)
    first, last_idx = shadow.tree.child_range(node, off, length)
    for i in range(first, last_idx + 1):
        child_off = max(off, i * child_size)
        child_end = min(off + length, (i + 1) * child_size)
        child = shadow.tree.peek(node.level - 1, i)
        visited += _read_rec(
            shadow, child, eff.sub_gen, last_base, last_start,
            child_off, child_end - child_off, out, out_base,
        )
    return visited


def _read_leaf(
    shadow,
    node: Node,
    path_gen: int,
    last_base: int,
    last_start: int,
    off: int,
    length: int,
    out: bytearray,
    out_base: int,
) -> int:
    cfg = shadow.config
    nbits = cfg.effective_leaf_bits
    sub = cfg.leaf_size // nbits
    eff = bitmap.effective_leaf(node.word, path_gen)
    pos = off
    end = off + length
    while pos < end:
        i = (pos - node.start) // sub
        bit = (eff.mask >> i) & 1
        # Coalesce the run of sub-blocks served by the same source.
        j = i
        while node.start + (j + 1) * sub < end and ((eff.mask >> (j + 1)) & 1) == bit:
            j += 1
        run_end = min(end, node.start + (j + 1) * sub)
        take = run_end - pos
        if bit:
            src = node.log_off + (pos - node.start)
        else:
            src = last_base + (pos - last_start)
        _copy_from(shadow, src, pos, take, out, out_base)
        pos = run_end
    return 0


def _copy_from(shadow, dev_off: int, file_off: int, length: int, out: bytearray, out_base: int) -> None:
    data = _read_clipped(shadow, dev_off, length)
    out[file_off - out_base : file_off - out_base + length] = data


def _read_clipped(shadow, dev_off: int, length: int) -> bytes:
    """Device read clipped at the file extent end (tail sub-blocks)."""
    if shadow.inode.base <= dev_off < shadow.inode.base + shadow.inode.capacity:
        length = min(length, shadow.inode.base + shadow.inode.capacity - dev_off)
    data = shadow.device.load(dev_off, length) if length > 0 else b""
    return data.ljust(length, b"\0")
