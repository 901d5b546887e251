"""Packed node words and generation-based staleness resolution."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import bitmap
from repro.nvm.bitmap import iter_bit_runs

gens = st.integers(0, bitmap.GEN_MASK)
masks = st.integers(0, 0xFFFFFFFF)


class TestPacking:
    @given(st.booleans(), st.booleans(), gens, gens)
    def test_nonleaf_roundtrip(self, valid, existing, sub, own):
        word = bitmap.pack_nonleaf(valid, existing, sub, own)
        bits = bitmap.unpack_nonleaf(word)
        assert bits == (valid, existing, sub, own)

    @given(masks, gens)
    def test_leaf_roundtrip(self, mask, own):
        word = bitmap.pack_leaf(mask, own)
        bits = bitmap.unpack_leaf(word)
        assert bits == (mask, own)

    @given(st.booleans(), st.booleans(), gens, gens)
    def test_word_fits_atomic_unit(self, valid, existing, sub, own):
        word = bitmap.pack_nonleaf(valid, existing, sub, own)
        assert 0 <= word < (1 << 64)

    def test_zero_word_is_inert(self):
        bits = bitmap.unpack_nonleaf(0)
        assert not bits.valid and not bits.existing
        assert bits.sub_gen == 0 and bits.own_gen == 0
        assert bitmap.unpack_leaf(0).mask == 0


class TestEffectiveBits:
    def test_fresh_word_passes_through(self):
        word = bitmap.pack_nonleaf(True, True, 5, 10)
        eff = bitmap.effective_nonleaf(word, path_gen=7)
        assert eff.valid and eff.existing
        assert eff.sub_gen == 7  # lifted to the path gen

    def test_stale_word_reads_as_dead(self):
        word = bitmap.pack_nonleaf(True, True, 5, 10)
        eff = bitmap.effective_nonleaf(word, path_gen=11)
        assert not eff.valid and not eff.existing
        assert eff.sub_gen == 11

    def test_equal_gen_is_fresh(self):
        word = bitmap.pack_nonleaf(True, False, 3, 10)
        eff = bitmap.effective_nonleaf(word, path_gen=10)
        assert eff.valid

    def test_leaf_staleness(self):
        word = bitmap.pack_leaf(0xFF, 4)
        assert bitmap.effective_leaf(word, 4).mask == 0xFF
        assert bitmap.effective_leaf(word, 5).mask == 0

    @given(st.booleans(), st.booleans(), gens, gens, gens)
    def test_effective_sub_gen_never_below_path(self, valid, existing, sub, own, path):
        word = bitmap.pack_nonleaf(valid, existing, sub, own)
        eff = bitmap.effective_nonleaf(word, path)
        assert eff.sub_gen >= path

    @given(gens, gens)
    def test_lazy_cleaning_invariant(self, g_commit, g_old):
        """A coarse commit at gen G invalidates any descendant word whose
        own_gen < G — without touching the descendant."""
        child = bitmap.pack_nonleaf(True, True, g_old, g_old)
        eff = bitmap.effective_nonleaf(child, path_gen=g_commit)
        if g_old < g_commit:
            assert not eff.valid and not eff.existing
        else:
            assert eff.valid


class TestMaskHelpers:
    def test_mask_for_range(self):
        assert bitmap.mask_for_range(0, 4) == 0b1111
        assert bitmap.mask_for_range(2, 5) == 0b11100
        assert bitmap.mask_for_range(3, 3) == 0
        assert bitmap.mask_for_range(5, 2) == 0

    def test_iter_mask_runs(self):
        assert list(iter_bit_runs(0b0110_1001)) == [(0, 1), (3, 4), (5, 7)]
        assert list(iter_bit_runs(0)) == []
        assert list(iter_bit_runs(0xFF)) == [(0, 8)]

    @given(masks)
    def test_runs_reconstruct_mask(self, mask):
        mask &= 0xFFFFFFFF
        rebuilt = 0
        for start, end in iter_bit_runs(mask):
            rebuilt |= bitmap.mask_for_range(start, end)
        assert rebuilt == mask
