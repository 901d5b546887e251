"""What the observers cost, as a count that repeats exactly.

Wall-clock overhead is gated in CI's perf-smoke job, on a noisy clock.
The number of Python-level function calls an op makes is exact for a
seed, so tier-1 gates that: the ``fio_4k`` stream (4 KB random overwrite
+ fsync on MGSP, as ``benchmarks/e2e`` runs it) with the cost recorder
alone against the same stream with telemetry and the flight recorder
attached. Before the device got its one observer seam the ratio was
2.76 (332 vs 917 calls/op: every device event took the per-element
path, every span sorted its label keys twice); an observer that starts
doing per-event work again fails here.
"""

from __future__ import annotations

import cProfile
import pstats
import random

from repro.bench.registry import device_size_for, make_fs
from repro.obs import attach_flight, attach_telemetry
from repro.workloads.fio import _prefill

FSIZE = 4 << 20
BS = 4096
OPS = 500
MAX_RATIO = 2.0


def _calls_per_op(observed: bool) -> float:
    fs = make_fs("MGSP", device_size=device_size_for(FSIZE))
    if observed:
        attach_telemetry(fs)
        attach_flight(fs)
    handle = fs.create("fio.dat", capacity=FSIZE)
    _prefill(fs, handle, FSIZE)
    rng = random.Random(42)
    offsets = [rng.randrange(FSIZE // BS) * BS for _ in range(OPS)]
    payload = bytes([17]) * BS

    def run() -> None:
        for off in offsets:
            handle.write(off, payload)
            handle.fsync()
            fs.take_traces()

    run()  # every block logged once, every span name resolved: steady state
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    return pstats.Stats(profile).total_calls / OPS


def test_observers_at_most_double_the_calls_per_op():
    bare = _calls_per_op(observed=False)
    observed = _calls_per_op(observed=True)
    assert observed > bare  # the observers did attach
    assert observed / bare <= MAX_RATIO, (
        f"{observed:.0f} calls/op observed vs {bare:.0f} bare "
        f"({observed / bare:.2f}x > {MAX_RATIO}x)"
    )
