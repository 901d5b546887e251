"""RangeBitmap must behave exactly like the IntervalSet it replaced,
including ascending run order (load-bearing for seeded crash images)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.bitmap import CHUNK_BITS, RangeBitmap, iter_bit_runs
from interval_oracle import IntervalSet


class TestBitRuns:
    def test_empty_mask(self):
        assert list(iter_bit_runs(0)) == []

    def test_single_bit(self):
        assert list(iter_bit_runs(1 << 5)) == [(5, 6)]

    def test_multiple_runs(self):
        mask = 0b1110010110
        assert list(iter_bit_runs(mask)) == [(1, 3), (4, 5), (7, 10)]

    def test_full_chunk(self):
        assert list(iter_bit_runs((1 << CHUNK_BITS) - 1)) == [(0, CHUNK_BITS)]


# Word-aligned ranges spanning several chunks at grain 8
# (one chunk = CHUNK_BITS * 8 bytes = 32 KB).
aligned_ranges = st.lists(
    st.tuples(st.integers(0, 12_000), st.integers(1, 600)).map(
        lambda t: (t[0] * 8, t[0] * 8 + t[1] * 8)
    ),
    max_size=30,
)
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, 12_000),
        st.integers(1, 600),
    ),
    max_size=40,
)


class TestEquivalenceWithIntervalSet:
    @given(aligned_ranges)
    @settings(max_examples=80, deadline=None)
    def test_adds_produce_identical_runs(self, ranges):
        bm = RangeBitmap(8)
        ref = IntervalSet()
        for start, end in ranges:
            bm.add(start, end)
            ref.add(start, end)
        assert list(bm.runs()) == list(ref)
        assert len(bm) == len(ref)
        assert bool(bm) == bool(ref)

    @given(ops)
    @settings(max_examples=80, deadline=None)
    def test_mixed_adds_removes_match(self, operations):
        bm = RangeBitmap(8)
        ref = IntervalSet()
        for op, word, nwords in operations:
            start, end = word * 8, (word + nwords) * 8
            if op == "add":
                bm.add(start, end)
                ref.add(start, end)
            else:
                bm.remove(start, end)
                ref.remove(start, end)
        assert list(bm.runs()) == list(ref)

    @given(ops, st.integers(0, 12_600), st.integers(0, 12_600))
    @settings(max_examples=80, deadline=None)
    def test_iter_intersect_matches(self, operations, a, b):
        lo, hi = min(a, b) * 8, max(a, b) * 8
        bm = RangeBitmap(8)
        ref = IntervalSet()
        for op, word, nwords in operations:
            start, end = word * 8, (word + nwords) * 8
            if op == "add":
                bm.add(start, end)
                ref.add(start, end)
            else:
                bm.remove(start, end)
                ref.remove(start, end)
        assert list(bm.iter_intersect(lo, hi)) == list(ref.iter_intersect(lo, hi))


class TestRunOrdering:
    def test_runs_ascend_across_chunk_borders(self):
        bm = RangeBitmap(8)
        chunk_bytes = CHUNK_BITS * 8
        # A run straddling a chunk border must come out as one range.
        bm.add(chunk_bytes - 64, chunk_bytes + 64)
        bm.add(8, 16)
        bm.add(3 * chunk_bytes, 3 * chunk_bytes + 8)
        assert list(bm.runs()) == [
            (8, 16),
            (chunk_bytes - 64, chunk_bytes + 64),
            (3 * chunk_bytes, 3 * chunk_bytes + 8),
        ]
