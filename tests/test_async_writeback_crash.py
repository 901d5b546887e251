"""Exhaustive crash enumeration with asynchronous write-back epochs on.

Same model-checking flavour as ``test_exhaustive_crash.py``: pick crash
points with a small unfenced frontier and enumerate every persistence
subset. The twist is that the background write-back scheduler is armed
with a tiny epoch threshold, so crashes land before, inside, and after
checkpoint drains — a crash mid-epoch must still recover to a legal
prefix (all completed writes, the in-flight one all-or-nothing).
"""

from __future__ import annotations

import itertools
import random

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

CAP = 128 * 1024
MAX_ENUM_WORDS = 8

CONFIG_KW = dict(degree=16, async_writeback=True, writeback_epoch_bytes=16 << 10)


def build_crashed_state(crash_after, seed=33):
    fs = MgspFilesystem(device_size=4 << 20, config=MgspConfig(**CONFIG_KW))
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
            f.write(off, payload)  # may also fire an epoch drain
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


def test_crash_mid_epoch_recovers_consistent_prefix():
    checked_points = 0
    enumerated = 0
    drained_any = False
    for crash_after in range(5, 400, 17):
        state = build_crashed_state(crash_after)
        if state is None:
            break
        fs, ref, pending = state
        if fs.flusher is not None and fs.flusher.epochs > 0:
            drained_any = True
        words = fs.device.unfenced_words()
        if len(words) > MAX_ENUM_WORDS:
            continue
        checked_points += 1
        legal = legal_states(ref, pending)
        if enumerated > 500:
            break
        for r in range(len(words) + 1):
            for subset in itertools.combinations(words, r):
                enumerated += 1
                image = fs.device.crash_image(persist_words=subset)
                fs2, _ = recover(
                    NvmDevice.from_image(bytes(image)), config=MgspConfig(**CONFIG_KW)
                )
                got = fs2.open("e").read(0, CAP).ljust(CAP, b"\0")
                assert got in legal, (
                    f"crash_after={crash_after} subset={subset}: illegal state"
                )
    assert checked_points >= 3, checked_points
    assert enumerated >= 40, enumerated


def test_epoch_drains_preserve_contents_without_crash():
    """Sanity: with aggressive epochs, drains fire and the file reads
    back exactly what was written."""
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(**CONFIG_KW))
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
