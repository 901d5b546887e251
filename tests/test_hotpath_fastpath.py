"""Leaf fast path: invalidation edges, slow-vs-fast differential, and
the incremental unfenced-word tracker.

The fast path replays a cached root->leaf chain instead of descending
for writes fully contained in one leaf (geometry alone selects it; there
is no switch). These tests pin down the cases where the cache must NOT be
trusted — height growth, checkpoint/epoch bumps, open transactions — and
assert the planner is observably identical to the generic descent.
"""

from __future__ import annotations

import random

import pytest

from device_oracle import differing_words
from repro.core import MgspConfig, MgspFilesystem
from repro.core.file import MgspFile
from repro.errors import TransactionError
from repro.nvm.cache import _SCAN_CHUNK, PAGE, StoreBuffer

CAP = 4 << 20


def make_fs(**kwargs):
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(**kwargs))
    handle = fs.create("f", capacity=CAP)
    fs.device.drain()
    return fs, handle


# ---------------------------------------------------------------- invalidation


def test_fast_path_survives_height_growth_mid_stream():
    fs, f = make_fs()
    f.write(0, b"a" * 64)  # small tree, chain cached
    hits_before = f.fast_hits
    f.write(0, b"b" * 64)
    assert f.fast_hits > hits_before  # second write hits the cache
    old_height = f.tree.height
    # Force the tree to grow: write past the currently covered range.
    far = (CAP // 2) + 4096
    f.write(far, b"c" * 64)
    assert f.tree.height >= old_height
    # The cached chain for leaf 0 predates the growth; the next write
    # must rebuild it (a stale chain would miss the new root).
    f.write(0, b"d" * 64)
    assert f.read(0, 64) == b"d" * 64
    assert f.read(far, 64) == b"c" * 64


def test_fast_path_invalidated_by_checkpoint_between_writes():
    fs, f = make_fs()
    f.write(4096, b"x" * 4096)
    misses_before = f.fast_misses
    f.checkpoint()  # bumps tree.epoch (node set rebuilt / logs retired)
    f.write(4096, b"y" * 4096)
    assert f.fast_misses > misses_before  # epoch change forced a rebuild
    assert f.read(4096, 4096) == b"y" * 4096


def test_fast_path_refused_during_open_transaction():
    fs, f = make_fs()
    f.write(0, b"base" * 16)
    txn = fs.begin_transaction(f)
    txn.write(0, b"Z" * 64)
    # Plain writes (fast path included) must refuse while a txn is open.
    with pytest.raises(TransactionError):
        f.write(64, b"nope")
    txn.commit()
    assert f.read(0, 64) == b"Z" * 64
    # After commit the plain path works again.
    f.write(64, b"ok" * 32)
    assert f.read(64, 64) == b"ok" * 32


def test_fast_path_read_after_write_identical_bytes():
    fs, f = make_fs()
    rng = random.Random(11)
    shadow = bytearray(CAP)
    for i in range(300):
        size = rng.choice([8, 64, 128, 512, 4096])
        off = rng.randrange(0, CAP - size)
        payload = bytes([(i + j) % 251 for j in range(size)])
        f.write(off, payload)
        shadow[off : off + size] = payload
        if i % 50 == 17:
            f.checkpoint()
    assert f.read(0, CAP).ljust(CAP, b"\0") == bytes(shadow)


# ---------------------------------------------------------------- differential


def _run_sequence(detach_tracer: bool):
    fs, f = make_fs()
    if detach_tracer:
        fs.device.detach(fs.recorder)
    rng = random.Random(99)
    for i in range(250):
        size = rng.choice([8, 64, 100, 128, 2048, 4096, 6000])
        off = rng.randrange(0, CAP - size)
        f.write(off, bytes([(i * 3 + j) % 251 for j in range(size)]))
        if i % 83 == 5:
            f.checkpoint()
    image = bytes(fs.device.buffer.working)
    durable = bytes(fs.device.buffer.durable)
    stats = vars(fs.device.stats).copy()
    return image, durable, stats


@pytest.mark.parametrize("detach_tracer", [False, True])
def test_fast_and_slow_planner_differential(detach_tracer, monkeypatch):
    """Same randomized sequence through both planners: identical device
    images AND identical DeviceStats (write amplification unchanged) —
    with the cost recorder observing the device and with no observer
    attached at all."""
    fast = _run_sequence(detach_tracer)
    # The general planner, forced from here: every write is planned by
    # descent, as if none were contained in one leaf.
    write_atomic = MgspFile._write_atomic
    monkeypatch.setattr(
        MgspFile,
        "_write_atomic",
        lambda self, offset, data, leaf_index: write_atomic(self, offset, data, None),
    )
    slow = _run_sequence(detach_tracer)
    assert fast[0] == slow[0]  # working image
    assert fast[1] == slow[1]  # durable image
    assert fast[2] == slow[2]  # DeviceStats


# ------------------------------------------------- unfenced-word tracker


def test_unfenced_words_matches_full_scan():
    """The dirty/pending line walk (plus memo) must report exactly the
    words a whole-image diff finds, in the same ascending order — also on
    the inputs a word scan of XORed chunks could get wrong: zero bytes
    inside a differing word, one run longer than a scan chunk with an odd
    tail, and a buffer booted from an image."""
    rng = random.Random(11)

    # A word differs when any one of its bytes does: a single non-zero
    # byte at either end of a zero word, and zero bytes stored over
    # non-zero ones (the XOR's non-zero byte is where working is zero).
    buf = StoreBuffer(1 << 16)
    buf.nt_store(0, bytes(range(1, 129)))
    buf.fence()
    buf.store(0, b"\0\0\0\0\0\0\0\x07" + b"\x09" + bytes(7) + b"\0" * 8)
    buf.store(64, bytes(range(65, 72)) + b"\0")  # only the last byte changes
    assert buf.unfenced_words() == [0, 8, 16, 64] == differing_words(buf.working, buf.durable)

    # One run of two chunks and an odd tail: differing words at both ends
    # of every chunk, sparse ones inside, and a dense stretch.
    run_start, run_len = 3 * 64, 2 * _SCAN_CHUNK + 448
    buf = StoreBuffer(4 * _SCAN_CHUNK)
    buf.store(run_start, bytes(run_len))  # one dirty run, no difference yet
    assert buf.unfenced_words() == []
    edges = [0, _SCAN_CHUNK - 8, _SCAN_CHUNK, 2 * _SCAN_CHUNK - 8, 2 * _SCAN_CHUNK, run_len - 8]
    for rel in edges + [rng.randrange(run_len // 8) * 8 for _ in range(40)]:
        buf.store(run_start + rel + rng.randrange(8), bytes([rng.randrange(1, 256)]))
    buf.store(run_start + _SCAN_CHUNK - 200, bytes(rng.randrange(256) for _ in range(400)))
    assert buf.unfenced_words() == differing_words(buf.working, buf.durable)
    buf.flush(run_start, _SCAN_CHUNK)
    buf.fence()  # the first chunk's lines become durable; the rest still differ
    assert buf.unfenced_words() == differing_words(buf.working, buf.durable)

    # Booted from content: both images are pages over one base, so the
    # scan reads page pieces; stores that restore the base's bytes, zero
    # them, or cross a page boundary.
    image = bytes(rng.randrange(256) for _ in range(4 * PAGE))
    buf = StoreBuffer(len(image), image=image)
    buf.store(PAGE - 24, bytes(48))
    buf.store(2 * PAGE, image[2 * PAGE : 2 * PAGE + 64])  # dirty, unchanged
    buf.store(3 * PAGE + 8, b"\0" + image[3 * PAGE + 9 : 3 * PAGE + 16])
    assert buf.unfenced_words() == differing_words(buf.working, buf.durable)
    assert len(buf.unfenced_words()) == 7

    buf = StoreBuffer(1 << 16)
    rng = random.Random(3)
    for step in range(400):
        op = rng.randrange(6)
        if op == 0:
            off = rng.randrange(0, (1 << 16) - 256)
            buf.store(off, bytes([rng.randrange(256)]) * rng.choice([1, 8, 96]))
        elif op == 1:
            off = rng.randrange(0, (1 << 16) - 256)
            buf.nt_store(off, bytes([rng.randrange(256)]) * rng.choice([8, 64, 200]))
        elif op == 2:
            buf.nt_store_word(rng.randrange(0, (1 << 16) // 8) * 8, rng.getrandbits(64))
        elif op == 3:
            off = rng.randrange(0, (1 << 16) - 512)
            buf.flush(off, rng.choice([8, 64, 512]))
        elif op == 4:
            buf.fence()
        else:
            words = [
                (rng.randrange(0, (1 << 16) // 8) * 8, rng.getrandbits(64))
                for _ in range(rng.randrange(1, 5))
            ]
            buf.nt_store_words(words)
        assert buf.unfenced_words() == differing_words(buf.working, buf.durable), f"step {step}"
    buf.drain()
    assert buf.unfenced_words() == [] == differing_words(buf.working, buf.durable)


def test_unfenced_words_memo_invalidated_by_mutation():
    buf = StoreBuffer(4096)
    buf.nt_store(0, b"\xff" * 8)
    first = buf.unfenced_words()
    assert first == [0]
    assert buf.unfenced_words() == first  # memo hit, same answer
    buf.nt_store(64, b"\xee" * 8)
    assert buf.unfenced_words() == [0, 64]  # memo dropped on store
    buf.fence()
    assert buf.unfenced_words() == []
