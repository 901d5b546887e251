"""IntervalSet: unit tests + property tests against a set-of-ints model."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from interval_oracle import IntervalSet


class TestBasics:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert len(s) == 0
        assert s.total() == 0
        assert list(s) == []

    def test_single_add(self):
        s = IntervalSet()
        s.add(5, 10)
        assert list(s) == [(5, 10)]
        assert s.total() == 5

    def test_add_empty_range_ignored(self):
        s = IntervalSet()
        s.add(5, 5)
        s.add(7, 3)
        assert not s

    def test_coalesce_touching(self):
        s = IntervalSet([(0, 5), (5, 10)])
        assert list(s) == [(0, 10)]

    def test_coalesce_overlapping(self):
        s = IntervalSet([(0, 6), (4, 10)])
        assert list(s) == [(0, 10)]

    def test_disjoint_stay_apart(self):
        s = IntervalSet([(0, 5), (6, 10)])
        assert list(s) == [(0, 5), (6, 10)]

    def test_bridge_merge(self):
        s = IntervalSet([(0, 5), (10, 15)])
        s.add(5, 10)
        assert list(s) == [(0, 15)]

    def test_contains(self):
        s = IntervalSet([(10, 20)])
        assert s.contains(10)
        assert s.contains(19)
        assert not s.contains(20)
        assert not s.contains(9)

    def test_covers(self):
        s = IntervalSet([(10, 20)])
        assert s.covers(10, 20)
        assert s.covers(12, 15)
        assert not s.covers(5, 12)
        assert not s.covers(15, 25)
        assert s.covers(13, 13)  # empty range is always covered

    def test_overlaps(self):
        s = IntervalSet([(10, 20)])
        assert s.overlaps(15, 25)
        assert s.overlaps(5, 11)
        assert not s.overlaps(0, 10)
        assert not s.overlaps(20, 30)

    def test_remove_middle_splits(self):
        s = IntervalSet([(0, 10)])
        s.remove(3, 7)
        assert list(s) == [(0, 3), (7, 10)]

    def test_remove_across_intervals(self):
        s = IntervalSet([(0, 5), (8, 12), (15, 20)])
        s.remove(3, 16)
        assert list(s) == [(0, 3), (16, 20)]

    def test_remove_everything(self):
        s = IntervalSet([(0, 5), (8, 12)])
        s.remove(0, 12)
        assert not s

    def test_remove_nothing(self):
        s = IntervalSet([(5, 10)])
        s.remove(0, 5)
        s.remove(10, 20)
        assert list(s) == [(5, 10)]

    def test_intersect(self):
        s = IntervalSet([(0, 5), (8, 12), (15, 20)])
        assert list(s.intersect(3, 16)) == [(3, 5), (8, 12), (15, 16)]
        assert list(s.intersect(5, 8)) == []

    def test_pop_all(self):
        s = IntervalSet([(1, 2), (4, 6)])
        assert s.pop_all() == [(1, 2), (4, 6)]
        assert not s

    def test_update(self):
        a = IntervalSet([(0, 5)])
        b = IntervalSet([(3, 8), (10, 12)])
        a.update(b)
        assert list(a) == [(0, 8), (10, 12)]

    def test_equality(self):
        assert IntervalSet([(0, 5)]) == IntervalSet([(0, 3), (3, 5)])
        assert IntervalSet([(0, 5)]) != IntervalSet([(0, 4)])


ranges = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 40)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=30,
)
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, 200),
        st.integers(1, 40),
    ),
    max_size=50,
)


def model_points(interval_set: IntervalSet) -> set:
    return {p for s, e in interval_set for p in range(s, e)}


class TestProperties:
    @given(ranges)
    def test_matches_point_set_model(self, rs):
        s = IntervalSet()
        model = set()
        for start, end in rs:
            s.add(start, end)
            model |= set(range(start, end))
        assert model_points(s) == model
        assert s.total() == len(model)

    @given(ops)
    def test_add_remove_matches_model(self, operations):
        s = IntervalSet()
        model = set()
        for op, start, width in operations:
            end = start + width
            if op == "add":
                s.add(start, end)
                model |= set(range(start, end))
            else:
                s.remove(start, end)
                model -= set(range(start, end))
            assert model_points(s) == model

    @given(ranges)
    def test_sorted_coalesced_invariant(self, rs):
        s = IntervalSet()
        for start, end in rs:
            s.add(start, end)
        items = list(s)
        for (s1, e1), (s2, e2) in zip(items, items[1:]):
            assert e1 < s2  # strictly separated (touching would coalesce)
        for start, end in items:
            assert start < end

    @given(ranges, st.integers(0, 250), st.integers(0, 250))
    def test_intersect_is_model_intersection(self, rs, a, b):
        lo, hi = min(a, b), max(a, b)
        s = IntervalSet()
        for start, end in rs:
            s.add(start, end)
        got = model_points(s.intersect(lo, hi))
        assert got == model_points(s) & set(range(lo, hi))


class TestAddFastPaths:
    """The O(1) add shortcuts (append-at-end, last-interval extension,
    full containment) must be invisible: same set as the general path."""

    def test_append_at_end(self):
        s = IntervalSet()
        for i in range(5):
            s.add(i * 100, i * 100 + 10)
        assert list(s) == [(i * 100, i * 100 + 10) for i in range(5)]

    def test_touching_end_coalesces(self):
        s = IntervalSet([(0, 10)])
        s.add(10, 20)
        assert list(s) == [(0, 20)]

    def test_overlapping_end_extends(self):
        s = IntervalSet([(0, 10)])
        s.add(5, 30)
        assert list(s) == [(0, 30)]

    def test_extension_inside_last_is_noop(self):
        s = IntervalSet([(0, 100)])
        s.add(50, 60)
        assert list(s) == [(0, 100)]

    def test_full_containment_in_earlier_interval(self):
        s = IntervalSet([(0, 100), (200, 300)])
        s.add(10, 20)
        assert list(s) == [(0, 100), (200, 300)]

    def test_containment_check_does_not_miss_bridges(self):
        # Spans the gap between two intervals: must still merge.
        s = IntervalSet([(0, 100), (200, 300)])
        s.add(50, 250)
        assert list(s) == [(0, 300)]

    @given(ranges)
    def test_ascending_adds_match_shuffled_adds(self, rs):
        ordered = IntervalSet()
        for start, end in sorted(rs):
            ordered.add(start, end)
        shuffled = IntervalSet()
        for start, end in reversed(rs):
            shuffled.add(start, end)
        assert ordered == shuffled
