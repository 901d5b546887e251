"""Packed per-node metadata words and effective-bit resolution.

Every radix node owns one 64-bit word in its file's persistent node
table, updated only with 8-byte atomic stores — the commit unit of MGSP.

Non-leaf word::

    bit 0        valid        this node's log holds (part of) the latest data
    bit 1        existing     some descendant holds fresher data
    bits 8..31   sub_gen      generation stamped on the whole subtree
    bits 32..55  own_gen      generation this word was written at

Leaf word::

    bits 0..31   mask         per-sub-block valid bits
    bits 32..55  own_gen

**Lazy bitmap cleaning** (§III-B2) is implemented with the generations: a
coarse-grained commit at node X stores ``sub_gen = G`` into X's word
*only*; every descendant whose ``own_gen < G`` is thereby stale (its
valid/existing/mask read as zero) without touching its word. Staleness
is resolved top-down: ``path_gen`` is the running max of ancestor
``sub_gen`` values. This keeps the paper's one-atomic-store commit while
making lazy cleaning crash-consistent.
"""

from __future__ import annotations

from typing import NamedTuple

GEN_BITS = 24
GEN_MASK = (1 << GEN_BITS) - 1
MASK32 = 0xFFFFFFFF

_VALID = 1 << 0
_EXISTING = 1 << 1


class NonLeafBits(NamedTuple):
    valid: bool
    existing: bool
    sub_gen: int
    own_gen: int


class LeafBits(NamedTuple):
    mask: int
    own_gen: int


def pack_nonleaf(valid: bool, existing: bool, sub_gen: int, own_gen: int) -> int:
    word = 0
    if valid:
        word |= _VALID
    if existing:
        word |= _EXISTING
    word |= (sub_gen & GEN_MASK) << 8
    word |= (own_gen & GEN_MASK) << 32
    return word


def unpack_nonleaf(word: int) -> NonLeafBits:
    return NonLeafBits(
        valid=bool(word & _VALID),
        existing=bool(word & _EXISTING),
        sub_gen=(word >> 8) & GEN_MASK,
        own_gen=(word >> 32) & GEN_MASK,
    )


def pack_leaf(mask: int, own_gen: int) -> int:
    return (mask & MASK32) | ((own_gen & GEN_MASK) << 32)


def unpack_leaf(word: int) -> LeafBits:
    return LeafBits(mask=word & MASK32, own_gen=(word >> 32) & GEN_MASK)


def effective_nonleaf(word: int, path_gen: int) -> NonLeafBits:
    """Resolve a stored non-leaf word against the ancestors' generation."""
    bits = unpack_nonleaf(word)
    if bits.own_gen < path_gen:
        # Entire word predates a coarse-grained ancestor update: dead.
        return NonLeafBits(valid=False, existing=False, sub_gen=path_gen, own_gen=path_gen)
    return NonLeafBits(
        valid=bits.valid,
        existing=bits.existing,
        sub_gen=max(path_gen, bits.sub_gen),
        own_gen=bits.own_gen,
    )


def effective_leaf(word: int, path_gen: int) -> LeafBits:
    bits = unpack_leaf(word)
    if bits.own_gen < path_gen:
        return LeafBits(mask=0, own_gen=path_gen)
    return bits


def mask_for_range(start_sub: int, end_sub: int) -> int:
    """Bit mask covering sub-blocks [start_sub, end_sub)."""
    if end_sub <= start_sub:
        return 0
    return ((1 << (end_sub - start_sub)) - 1) << start_sub
