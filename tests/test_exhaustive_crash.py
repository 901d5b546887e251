"""Model-checking-flavoured crash verification.

Instead of sampling random persistence subsets, pick crash points where
the number of unfenced 8-byte words is small and enumerate EVERY subset
— recovery must produce a state the per-op level (:class:`FileOracle`)
accepts for all 2^k of them: every completed write, the in-flight one
all-or-nothing. This is the strongest statement the simulator can make
about the commit protocol. Under ``async`` the background write-back
scheduler runs with a tiny epoch threshold, so crashes land before,
inside and after checkpoint drains.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.crashsweep.workloads import CONFIGS, FileOracle, make_config
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CAP = 128 * 1024
MAX_ENUM_WORDS = 8  # 2^8 = 256 recoveries per crash point

#: config -> (op-stream seed, crash indices tried, enumeration cap)
SCHEDULE = {
    "sync": (21, range(1, 260, 13), 600),
    "async": (33, range(5, 400, 17), 500),
}


def build_crashed_state(config_name, crash_after, seed):
    fs = MgspFilesystem(device_size=4 << 20, config=make_config(config_name))
    f = fs.create("e", capacity=CAP)
    fs.device.drain()
    rng = random.Random(seed)
    oracle = FileOracle(CAP)
    fs.device.attach(CrashPlan(crash_after))
    try:
        for _ in range(10_000):
            off = rng.randrange(0, CAP - 2048)
            payload = bytes([rng.randrange(1, 255)]) * rng.choice([96, 1024, 2048])
            oracle.write(f, off, payload)  # under async, may also fire an epoch drain
    except CrashRequested:
        return fs, oracle
    return None


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_persistence_subset_recovers_legally(config_name):
    seed, crash_points, cap = SCHEDULE[config_name]
    checked_points = 0
    enumerated = 0
    drained_any = False
    for crash_after in crash_points:
        state = build_crashed_state(config_name, crash_after, seed)
        if state is None:
            break
        fs, oracle = state
        drained_any |= fs.flusher is not None and fs.flusher.epochs > 0
        words = fs.device.unfenced_words()
        if len(words) > MAX_ENUM_WORDS:
            continue  # enumerate only tractable frontiers
        checked_points += 1
        if enumerated > cap:
            break  # plenty of coverage; keep the suite fast
        for r in range(len(words) + 1):
            for subset in itertools.combinations(words, r):
                enumerated += 1
                image = fs.device.crash_image(persist_words=subset)
                fs2, _ = recover(NvmDevice.from_image(image), config=make_config(config_name))
                got = fs2.open("e").read(0, CAP).ljust(CAP, b"\0")
                why = oracle.illegal(got)
                assert why is None, f"crash_after={crash_after} subset={subset}: {why}"
    # The sweep must actually have exercised enumerable frontiers.
    assert checked_points >= 3, checked_points
    assert enumerated >= 40, enumerated
    # ...and, under async, crashes after a checkpoint drain.
    assert drained_any == (config_name == "async")


def test_commit_frontier_is_narrow():
    """At any instant, the unfenced set stays small (the protocol fences
    eagerly): this is what makes exhaustive enumeration meaningful."""
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(degree=16))
    f = fs.create("e", capacity=CAP)
    fs.device.drain()
    worst = 0
    rng = random.Random(5)
    for _ in range(60):
        f.write(rng.randrange(0, CAP - 4096), b"q" * 4096)
        worst = max(worst, len(fs.device.unfenced_words()))
    # Between ops only the retired metalog length word (+ maybe the
    # size field and a handful of table slots) can be unfenced.
    assert worst <= 6, worst


def test_epoch_drains_preserve_contents_without_crash():
    """Sanity: with aggressive epochs, drains fire and the file reads
    back exactly what was written."""
    fs = MgspFilesystem(device_size=32 << 20, config=make_config("async"))
    f = fs.create("e", capacity=CAP)
    fs.device.drain()
    rng = random.Random(8)
    ref = bytearray(CAP)
    for i in range(200):
        off = rng.randrange(0, CAP - 2048)
        payload = bytes([(i % 250) + 1]) * rng.choice([96, 1024, 2048])
        f.write(off, payload)
        ref[off : off + len(payload)] = payload
    assert fs.flusher is not None and fs.flusher.epochs > 0
    assert fs.flusher.bytes_drained > 0
    assert f.read(0, CAP).ljust(CAP, b"\0") == bytes(ref)
