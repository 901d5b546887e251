"""Model-checking-flavoured crash verification.

Instead of sampling random persistence subsets, pick crash points where
the number of unfenced 8-byte words is small and enumerate EVERY subset
— recovery must produce a legal state for all 2^k of them. This is the
strongest statement the simulator can make about the commit protocol.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CAP = 128 * 1024
MAX_ENUM_WORDS = 8  # 2^8 = 256 recoveries per crash point


def build_crashed_state(crash_after, seed=21):
    fs = MgspFilesystem(device_size=4 << 20, config=MgspConfig(degree=16))
    f = fs.create("e", capacity=CAP)
    fs.device.drain()
    rng = random.Random(seed)
    ref = bytearray(CAP)
    pending = None
    fs.device.attach(CrashPlan(crash_after))
    try:
        for _ in range(10_000):
            off = rng.randrange(0, CAP - 2048)
            payload = bytes([rng.randrange(1, 255)]) * rng.choice([96, 1024, 2048])
            pending = (off, payload)
            f.write(off, payload)
            ref[off : off + len(payload)] = payload
            pending = None
    except CrashRequested:
        return fs, ref, pending
    return None


def legal_states(ref, pending):
    old = bytes(ref)
    states = {old}
    if pending is not None:
        off, payload = pending
        new = bytearray(ref)
        new[off : off + len(payload)] = payload
        states.add(bytes(new))
    return states


def test_every_persistence_subset_recovers_legally():
    checked_points = 0
    enumerated = 0
    for crash_after in range(1, 260, 13):
        state = build_crashed_state(crash_after)
        if state is None:
            break
        fs, ref, pending = state
        words = fs.device.unfenced_words()
        if len(words) > MAX_ENUM_WORDS:
            continue  # enumerate only tractable frontiers
        checked_points += 1
        legal = legal_states(ref, pending)
        if enumerated > 600:
            break  # plenty of coverage; keep the suite fast
        for r in range(len(words) + 1):
            for subset in itertools.combinations(words, r):
                enumerated += 1
                image = fs.device.crash_image(persist_words=subset)
                fs2, _ = recover(
                    NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16)
                )
                got = fs2.open("e").read(0, CAP).ljust(CAP, b"\0")
                assert got in legal, (
                    f"crash_after={crash_after} subset={subset}: illegal state"
                )
    # The sweep must actually have exercised enumerable frontiers.
    assert checked_points >= 3, checked_points
    assert enumerated >= 40, enumerated


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
