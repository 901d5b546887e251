"""Sorted, coalesced half-open integer interval sets: the reference
``tests/test_nvm_bitmap.py`` compares ``RangeBitmap`` against.

The store buffer tracked dirty and flush-pending byte ranges with this
class until ``RangeBitmap`` replaced it; it lived in ``repro.nvm`` until
its last ``src`` user (Libnvmmio's in-block log ranges) moved to an int
byte mask.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Tuple

Interval = Tuple[int, int]


class IntervalSet:
    """A set of non-overlapping, sorted, coalesced [start, end) intervals."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for start, end in intervals:
            self.add(start, end)

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(zip(self._starts, self._ends))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:
        body = ", ".join(f"[{s}, {e})" for s, e in self)
        return f"IntervalSet({body})"

    def total(self) -> int:
        """Sum of interval lengths (no per-interval tuple allocation)."""
        return sum(self._ends) - sum(self._starts)

    def contains(self, point: int) -> bool:
        idx = bisect_right(self._starts, point) - 1
        return idx >= 0 and point < self._ends[idx]

    def covers(self, start: int, end: int) -> bool:
        """True when [start, end) is entirely inside one interval."""
        if start >= end:
            return True
        idx = bisect_right(self._starts, start) - 1
        return idx >= 0 and end <= self._ends[idx]

    def overlaps(self, start: int, end: int) -> bool:
        if start >= end or not self._starts:
            return False
        idx = bisect_right(self._starts, start) - 1
        if idx >= 0 and start < self._ends[idx]:
            return True
        nxt = bisect_left(self._starts, start)
        return nxt < len(self._starts) and self._starts[nxt] < end

    def intersect(self, start: int, end: int) -> "IntervalSet":
        """Return the part of this set inside [start, end)."""
        result = IntervalSet()
        for lo, hi in self.iter_intersect(start, end):
            result.add(lo, hi)
        return result

    def iter_intersect(self, start: int, end: int) -> Iterator[Interval]:
        """Yield the clipped pieces of this set inside [start, end).

        Allocation-free alternative to :meth:`intersect` for hot paths
        (the store buffer's flush). The set must not be mutated while
        the generator is being consumed.
        """
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        idx = max(0, bisect_right(starts, start) - 1)
        for i in range(idx, len(starts)):
            s = starts[i]
            if s >= end:
                break
            e = ends[i]
            lo = s if s > start else start
            hi = e if e < end else end
            if lo < hi:
                yield lo, hi

    # -- mutation --------------------------------------------------------

    def add(self, start: int, end: int) -> None:
        """Insert [start, end), coalescing with touching neighbours."""
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        if starts:
            last_end = ends[-1]
            if start > last_end:
                # Append-at-end: strictly past the last interval — the
                # common shape for ascending scans (crashsweep census,
                # sequential writers). O(1) instead of two bisects and a
                # list splice.
                starts.append(start)
                ends.append(end)
                return
            if start >= starts[-1]:
                # Touches or overlaps only the last interval: extend in
                # place (sequential writers growing one run).
                if end > last_end:
                    ends[-1] = end
                return
            idx = bisect_right(starts, start) - 1
            if idx >= 0 and end <= ends[idx]:
                # Fully contained in one existing interval: no-op.
                return
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]

    def remove(self, start: int, end: int) -> None:
        """Delete [start, end) from the set, splitting as needed."""
        if start >= end or not self._starts:
            return
        starts, ends = self._starts, self._ends
        # First interval that extends past `start`; stop at `end`.
        i = bisect_right(ends, start)
        j = i
        new_starts: List[int] = []
        new_ends: List[int] = []
        while j < len(starts) and starts[j] < end:
            s, e = starts[j], ends[j]
            if s < start:
                new_starts.append(s)
                new_ends.append(start)
            if e > end:
                new_starts.append(end)
                new_ends.append(e)
            j += 1
        starts[i:j] = new_starts
        ends[i:j] = new_ends

    def pop_all(self) -> List[Interval]:
        """Return every interval and clear the set."""
        out = list(self)
        self._starts.clear()
        self._ends.clear()
        return out

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()

    def update(self, other: "IntervalSet") -> None:
        for s, e in other:
            self.add(s, e)
