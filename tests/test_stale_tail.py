"""Bytes past EOF in the file extent are never data.

A rolled-back transaction or a crashed undo-style write leaves its bytes
in the file extent under a still-valid leaf bit, and write-back clips at
the size, so they survive close and recovery. The next size-extending
write's RMW fill must not read them back as file content (found by
``tests/test_stateful.py``; this is its falsifying example, pinned).
"""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

EOF = 3218  # after the one-byte write at 3217


def _mount(degree):
    config = MgspConfig(degree=degree)
    fs = MgspFilesystem(device_size=16 << 20, config=config)
    handle = fs.create("m", capacity=256 << 10)
    handle.write(EOF - 1, b"\x01")  # sets the leaf bit: later writes here are undo-style
    return fs, handle, config


@pytest.mark.parametrize("second", ["plain", "txn"])
@pytest.mark.parametrize("degree", [16, 64])
def test_rolled_back_bytes_past_eof_do_not_resurface(degree, second):
    fs, handle, _ = _mount(degree)
    txn = fs.begin_transaction(handle)
    txn.write(1313, b"\x01" * 1906)  # ends one byte past EOF
    txn.rollback()
    handle.close()
    handle = fs.open("m")
    if second == "plain":
        handle.write(EOF + 1, b"\x01")
    else:
        with fs.begin_transaction(handle) as txn:
            txn.write(EOF + 1, b"\x01")
    assert handle.read(EOF - 2, 4) == b"\x00\x01\x00\x01"


@pytest.mark.xfail(
    strict=True,
    reason="known hole variant: write_back clips at inode.size, so a size-extending "
    "write that skips the EOF sub-block exposes the stale byte; the fix moves "
    "crash_recover sim_p50_us and needs its own PR",
)
@pytest.mark.parametrize("degree", [16, 64])
def test_hole_past_stale_tail_reads_zero(degree):
    fs, handle, _ = _mount(degree)
    txn = fs.begin_transaction(handle)
    txn.write(1313, b"\x01" * 1906)  # ends one byte past EOF
    txn.rollback()
    handle.close()
    handle = fs.open("m")
    handle.write(5000, b"\x01")  # extends the size without touching the EOF sub-block
    assert handle.read(EOF, 1) == b"\x00"


def test_crashed_write_past_eof_does_not_resurface_after_recovery():
    uncommitted = 0
    for crash_after in range(1, 64):
        fs, handle, config = _mount(16)
        fs.device.drain()
        fs.device.attach(CrashPlan(crash_after))
        try:
            handle.write(EOF - 2, b"\x02" * 8)  # straddles EOF, undo-style
        except CrashRequested:
            pass
        else:
            break
        # Every unfenced word lands: the worst case for stale bytes.
        image = fs.device.crash_image(rng=random.Random(0), persist_probability=1.0)
        fs2, _ = recover(NvmDevice.from_image(bytes(image)), config=config)
        handle = fs2.open("m")
        if handle.size == EOF:  # the crashed write never committed
            uncommitted += 1
            handle.write(EOF + 1, b"\x01")
            assert handle.read(EOF - 2, 4) == b"\x00\x01\x00\x01", crash_after
        else:
            assert handle.read(EOF - 2, 8) == b"\x02" * 8, crash_after
    assert uncommitted  # the sweep did reach the state under test
