"""Differential audit of the PR-7 ``IntervalSet.add`` fast paths.

PR-7 added three shortcuts to ``add`` (append-at-end, extend-last,
containment no-op) ahead of the general bisect-and-splice path. This
module pins them against a reference implementation that *only* runs
the slow path, with hypothesis steering at the edge cases the fast
paths gate on: zero-length ranges, adjacent-touching ranges
(``start == last_end``), and exact-boundary containment.

Audit verdict (PR-8): exhaustive enumeration over small universes plus
these properties found **no divergence** — the fast paths are correct.
The suite stays as a regression pin.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from interval_oracle import IntervalSet


class SlowIntervalSet(IntervalSet):
    """Reference: the pre-PR-7 general path only, no shortcuts."""

    def add(self, start: int, end: int) -> None:  # noqa: D102
        from bisect import bisect_left, bisect_right

        if start >= end:
            return
        starts, ends = self._starts, self._ends
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]


def _points(s: IntervalSet, universe: int):
    return {p for p in range(universe) if s.contains(p)}


# Small coordinates make touching/overlap/containment collisions likely;
# (a, a) zero-length and (a, a+0..3) adjacent shapes appear constantly.
_range = st.tuples(st.integers(0, 24), st.integers(0, 6)).map(
    lambda t: (t[0], t[0] + t[1])
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_range, max_size=24))
def test_add_fast_paths_match_slow_path(ranges):
    fast, slow = IntervalSet(), SlowIntervalSet()
    for start, end in ranges:
        fast.add(start, end)
        slow.add(start, end)
        assert list(fast) == list(slow), (ranges, start, end)
        # Normalization invariants the fast paths must preserve.
        prev_end = None
        for s, e in fast:
            assert s < e
            if prev_end is not None:
                assert s > prev_end  # sorted AND coalesced (no touching)
            prev_end = e


@settings(max_examples=200, deadline=None)
@given(st.lists(_range, max_size=16), _range)
def test_add_matches_point_set_model(ranges, probe):
    model = set()
    s = IntervalSet()
    for start, end in ranges:
        s.add(start, end)
        model |= set(range(start, end))
    assert _points(s, 32) == model
    assert s.total() == len(model)
    lo, hi = probe
    assert s.covers(lo, hi) == set(range(lo, hi)).issubset(model)
    assert s.overlaps(lo, hi) == bool(set(range(lo, hi)) & model)
    assert _points(s.intersect(lo, hi), 32) == set(range(lo, hi)) & model


def test_add_exhaustive_small_universe():
    """Every ≤2-interval base × every add over [0, 8): the fast paths
    and the slow path agree byte-for-byte, including zero-length adds
    and start == last_end adjacency."""
    n = 8
    singles = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
    bases = [()] + [(iv,) for iv in singles] + [
        (p, q) for p, q in itertools.combinations(singles, 2) if p[1] < q[0]
    ]
    adds = [(a, b) for a in range(n + 1) for b in range(a, n + 1)]  # incl. empty
    for base in bases:
        for add in adds:
            fast, slow = IntervalSet(base), SlowIntervalSet(base)
            fast.add(*add)
            slow.add(*add)
            assert list(fast) == list(slow), (base, add)
