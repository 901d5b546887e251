"""The paper's §IV-D caveat, demonstrated.

"Although MGSP provides file-system-level atomicity, it does not have a
transaction-level atomic mechanism" — a database in journal_mode=OFF
gets every *page write* atomic, but a multi-page commit can still tear
across a crash. The txn extension (repro.core.txn) closes that gap.

Also: crash sweeps for the ablation configs — every MGSP variant that
keeps shadow logging + the metadata log must stay single-write atomic.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice


def run_two_page_commit(crash_after, use_txn: bool):
    """Write two dependent pages; crash somewhere; return (a, b) pages
    after recovery (None if never crashed)."""
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(degree=16))
    f = fs.create("db", capacity=1 << 20)
    f.write(0, b"A0" * 2048)  # page 0, version 0
    f.write(4096, b"B0" * 2048)  # page 1, version 0
    fs.device.drain()
    fs.device.attach(CrashPlan(crash_after))
    try:
        if use_txn:
            with fs.begin_transaction(f) as txn:
                txn.write(0, b"A1" * 2048)
                txn.write(4096, b"B1" * 2048)
        else:
            f.write(0, b"A1" * 2048)
            f.write(4096, b"B1" * 2048)
    except CrashRequested:
        pass
    else:
        return None
    image = fs.device.crash_image(rng=random.Random(crash_after), persist_probability=0.5)
    fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=MgspConfig(degree=16))
    f2 = fs2.open("db")
    return f2.read(0, 2), f2.read(4096, 2)


def test_plain_writes_are_individually_but_not_jointly_atomic():
    """Without the txn extension, the A1/B0 intermediate state is
    reachable — each page is old or new, but the pair can split."""
    outcomes = set()
    for crash_after in range(1, 80, 3):
        result = run_two_page_commit(crash_after, use_txn=False)
        if result is None:
            break
        a, b = result
        assert a in (b"A0", b"A1")  # page-level atomicity always holds
        assert b in (b"B0", b"B1")
        outcomes.add((a, b))
    # The torn pair state occurs at some crash point (the paper's caveat).
    assert (b"A1", b"B0") in outcomes or (b"A0", b"B1") in outcomes
    assert (b"A0", b"B0") in outcomes  # early crashes keep the old pair


def test_txn_extension_closes_the_gap():
    for crash_after in range(1, 80, 3):
        result = run_two_page_commit(crash_after, use_txn=True)
        if result is None:
            break
        a, b = result
        assert (a, b) in ((b"A0", b"B0"), (b"A1", b"B1")), (crash_after, a, b)


ABLATION_CONFIGS = {
    "no-multigran": dict(multi_granularity=False),
    "no-finegrain": dict(fine_grained_logging=False),
    "no-finelock": dict(fine_grained_locking=False),
    "no-opts": dict(min_search_tree=False, lazy_intention_locks=False, greedy_locking=False),
    "shadow-off": dict(shadow_logging=False),
}


@pytest.mark.parametrize("name,cfg", ABLATION_CONFIGS.items())
def test_ablations_keep_single_write_atomicity(name, cfg):
    """Every ablation retains the metadata-log commit protocol, so
    single-write atomicity + durability must survive crash sweeps."""
    config = MgspConfig(degree=16, **cfg)
    for crash_after in range(3, 420, 83):
        fs = MgspFilesystem(device_size=32 << 20, config=config)
        f = fs.create("a", capacity=256 * 1024)
        fs.device.drain()
        rng = random.Random(7)
        ref = bytearray(256 * 1024)
        pending = None
        fs.device.attach(CrashPlan(crash_after))
        try:
            for _ in range(10_000):
                off = rng.randrange(0, 250_000)
                payload = bytes([rng.randrange(1, 255)]) * 3000
                pending = (off, payload)
                f.write(off, payload)
                ref[off : off + 3000] = payload
                pending = None
        except CrashRequested:
            pass
        else:
            break
        image = fs.device.crash_image(rng=random.Random(crash_after), persist_probability=0.5)
        fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=config)
        got = fs2.open("a").read(0, 256 * 1024).ljust(256 * 1024, b"\0")
        old = bytes(ref)
        if pending is None:
            assert got == old, (name, crash_after)
        else:
            off, payload = pending
            new = bytearray(ref)
            new[off : off + 3000] = payload
            assert got in (old, bytes(new)), (name, crash_after)


OVERSIZED_OFF, OVERSIZED_LEN = 21_008, 65_808  # needs 17 terminal nodes


def torn_oversized_write_points(degree, persist_probability):
    """Crash one 65,808-byte write at every persistence event; return the
    crash points whose recovered range is neither all old nor all new."""
    config = MgspConfig(degree=degree)
    old, new = b"\x01" * OVERSIZED_LEN, b"\x02" * OVERSIZED_LEN
    torn = []
    crash_after = 0
    while True:
        fs = MgspFilesystem(device_size=4 << 20, config=config)
        f = fs.create("f", capacity=256 << 10)
        f.write(0, b"\x01" * (200 << 10))
        f.fsync()
        fs.device.drain()
        fs.device.attach(CrashPlan(crash_after))
        try:
            f.write(OVERSIZED_OFF, new)
        except CrashRequested:
            pass
        else:
            return torn
        image = fs.device.crash_image(rng=random.Random(crash_after),
                                      persist_probability=persist_probability)
        fs2, _ = recover(NvmDevice.from_image(image), config=config)
        if fs2.open("f").read(OVERSIZED_OFF, OVERSIZED_LEN) not in (old, new):
            torn.append(crash_after)
        crash_after += 1


@pytest.mark.parametrize("persist_probability", [0.0, 1.0])
@pytest.mark.parametrize("degree", [16, 64])
def test_oversized_write_is_atomic_at_every_crash_point(degree, persist_probability):
    assert torn_oversized_write_points(degree, persist_probability) == []
