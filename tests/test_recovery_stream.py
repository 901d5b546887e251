"""The persistence-event stream of ``recover()`` is pinned.

Recovery's roll-forward and ``RadixTree.clear_table`` commit their
metadata words through the device's batch entry point; every word must
still reach observers as one ``atomic`` store and one one-line flush,
in the order and at the cost of the per-word loop. This pins, per
composed ``txn-mixed`` / async image (a few fixed crash points under
every policy), the rows a tap attached before ``recover()`` sees, the
recovery statistics and the recovered device's ``DeviceStats``.
"""

import dataclasses
import hashlib

import pytest

from repro.core import recover
from repro.crashsweep.sweep import PERSIST_PROBABILITY, POLICIES, point_seed
from repro.crashsweep.workloads import get_workload, make_config
from repro.nvm.crash import CrashPlan, compose_image
from repro.nvm.device import NvmDevice

SEED = 7

#: (crash point, policy) -> (rows, sha256[:16] of the rows,
#: entries_replayed, entries_discarded, elapsed_ns, DeviceStats fields)
RECOVERY_STREAM = {
    (600, "drop_all"): (134, "870039a5303c2011", 0, 0, 18345.85999999999,
                        (22962, 22602, 399, 45, 5, 84, 39, 0, 2)),
    (600, "keep_all"): (134, "870039a5303c2011", 0, 0, 18345.85999999999,
                        (22962, 22602, 399, 45, 5, 84, 39, 0, 2)),
    (600, "random"): (134, "870039a5303c2011", 0, 0, 18345.85999999999,
                      (22962, 22602, 399, 45, 5, 84, 39, 0, 2)),
    (1100, "drop_all"): (171, "80c7982b86ab0c4d", 1, 0, 28078.33999999999,
                         (35554, 35146, 601, 51, 5, 115, 64, 0, 0)),
    (1100, "keep_all"): (167, "69e731a8d013b12b", 0, 0, 27964.01999999999,
                         (35538, 35146, 599, 49, 5, 113, 64, 0, 2)),
    (1100, "random"): (167, "69e731a8d013b12b", 0, 0, 27964.01999999999,
                       (35538, 35146, 599, 49, 5, 113, 64, 0, 2)),
    (1500, "drop_all"): (48, "25c24adb15b46cde", 1, 0, 3975.5599999999977,
                         (4240, 4096, 82, 18, 5, 25, 7, 0, 0)),
    (1500, "keep_all"): (44, "c4e9fc1bcb19f312", 0, 0, 3861.239999999998,
                         (4224, 4096, 80, 16, 5, 23, 7, 0, 2)),
    (1500, "random"): (48, "25c24adb15b46cde", 1, 0, 3975.5599999999977,
                       (4240, 4096, 82, 18, 5, 25, 7, 0, 0)),
    (2300, "drop_all"): (156, "5127a392b7eeec7c", 0, 0, 21659.03999999999,
                         (23432, 23040, 409, 49, 5, 102, 53, 0, 2)),
    (2300, "keep_all"): (161, "6160fdd634d0e4dd", 1, 0, 22110.079999999987,
                         (23832, 23424, 417, 51, 5, 105, 54, 0, 0)),
    (2300, "random"): (156, "5127a392b7eeec7c", 0, 0, 21659.03999999999,
                       (23432, 23040, 409, 49, 5, 102, 53, 0, 2)),
}


class StreamTap:
    """Every persistence event as ``(kind, offset, length, store kind |
    flushed lines)``."""

    def __init__(self) -> None:
        self.rows = []

    def on_store(self, offset, size, kind):
        self.rows.append(("store", offset, size, kind))

    def on_flush(self, offset, length, nlines):
        self.rows.append(("flush", offset, length, nlines))

    def on_fence(self):
        self.rows.append(("fence", 0, 0, 0))


@pytest.fixture(scope="module")
def crashed():
    workload = get_workload("txn-mixed")
    points = sorted({point for point, _ in RECOVERY_STREAM})
    return {point: workload.run("async", CrashPlan(point)).fs.device for point in points}


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("point", sorted({point for point, _ in RECOVERY_STREAM}))
def test_recovery_stream_is_pinned(crashed, point, policy):
    image = compose_image(crashed[point], policy, seed=point_seed(SEED, point),
                          persist_probability=PERSIST_PROBABILITY)
    device = NvmDevice.from_image(image)
    tap = device.attach(StreamTap())
    _, stats = recover(device, config=make_config("async"))
    digest = hashlib.sha256(repr(tap.rows).encode()).hexdigest()[:16]
    got = (len(tap.rows), digest, stats.entries_replayed, stats.entries_discarded,
           stats.elapsed_ns, dataclasses.astuple(device.stats))
    assert got == RECOVERY_STREAM[point, policy.value]
