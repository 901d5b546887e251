"""Host-time calibration: a fixed kernel that turns seconds into units.

Wall-clock on a shared box drifts by 15-20 % between identical runs
(frequency scaling, steal time). The drift is slow compared with one
0.5 s pass, so a fixed pure-Python kernel timed immediately before and
after each pass sees the same machine speed the pass saw. One **unit**
is the mean time of one kernel iteration over the two flanking runs;
``host_units_per_op`` divides a pass's seconds-per-op by it.

The kernel does what the program's hot paths do most — a dict store and
a 4 KB ``memoryview`` slice copy — so interpreter dispatch and memcpy
speed are both in the unit. DRAM bandwidth and page-fault cost are not
(a bulk-copy kernel was tried: its time followed the allocator's state,
not the machine's).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

CALIB_ITERS = 60_000
_BLOCK = 4096


def calibrate() -> float:
    """Seconds per calibration-kernel iteration, measured now."""
    src = memoryview(bytes(_BLOCK))
    dst = memoryview(bytearray(_BLOCK))
    table: dict = {}
    t0 = time.perf_counter()
    for i in range(CALIB_ITERS):
        table[i & 1023] = i
        dst[0:_BLOCK] = src[0:_BLOCK]
    return (time.perf_counter() - t0) / CALIB_ITERS


@dataclass
class PassTiming:
    """One timed pass, flanked by two calibration runs."""

    seconds: float
    ops: int
    unit_s: float  # mean of the flanking calibrations

    @property
    def units_per_op(self) -> float:
        return (self.seconds / self.ops) / self.unit_s


def timed_pass(body: Callable[[], int]) -> PassTiming:
    """Run *body* (returns the ops it performed) between two calibrations."""
    before = calibrate()
    t0 = time.perf_counter()
    ops = body()
    seconds = time.perf_counter() - t0
    after = calibrate()
    return PassTiming(seconds=seconds, ops=ops, unit_s=(before + after) / 2.0)


#: A pass counts only if the machine was at most this much slower than
#: in the run's best pass. The box has a slow state (unit x1.6) in which
#: work that allocates and copies device images slows by only x1.3, so
#: the unit over-corrects there; measured over ten seeds in a noisy
#: hour, dropping those passes took the worst spread of
#: host_units_per_op from 19 % to 10 %.
STEADY_FACTOR = 1.3


def steady_mask(passes: List[PassTiming]) -> List[bool]:
    """Which passes ran in (about) the run's best machine state."""
    limit = STEADY_FACTOR * min(p.unit_s for p in passes)
    return [p.unit_s <= limit for p in passes]


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def iqr_ratio(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def steady_units_per_op(passes: List[PassTiming]) -> List[float]:
    """units/op of the steady passes: what host_units_per_op is the median of."""
    return [p.units_per_op for p, ok in zip(passes, steady_mask(passes)) if ok]
