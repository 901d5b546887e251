"""``StoreBuffer`` images cost what was touched — and hold what the
full-copy model holds.

A fresh image is lazily zero-filled, ``drain`` copies only dirty and
pending lines and ``from_image`` copies its source once per image. None
of that may be observable: every sequence of persistence ops must leave
the same working image, durable image, crash candidates (in order) and
seeded crash image as ``device_oracle.FullCopyBuffer``, which does
whole-image passes over eager ``bytearray`` images.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfRangeError
from repro.nvm.cache import StoreBuffer
from repro.nvm.device import NvmDevice

from device_oracle import FullCopyBuffer

SIZE = 1 << 14

_offset = st.integers(0, SIZE - 256)
_data = st.binary(min_size=1, max_size=200)
_word = st.tuples(st.integers(0, SIZE // 8 - 1).map(lambda w: w * 8), st.integers(0, 2**64 - 1))

ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), _offset, _data),
        st.tuples(st.just("nt_store"), _offset, _data),
        st.tuples(st.just("nt_store_words"), st.lists(_word, min_size=1, max_size=4)),
        st.tuples(st.just("flush"), _offset, st.integers(1, 256)),
        st.tuples(st.just("fence")),
        st.tuples(st.just("drain")),
    ),
    max_size=30,
)


def assert_same(buf: StoreBuffer, model: FullCopyBuffer, seed: int) -> None:
    assert bytes(buf.working) == bytes(model.working)
    assert bytes(buf.durable) == bytes(model.durable)
    assert buf.unfenced_words() == model.unfenced_words()
    assert buf.crash_image(rng=random.Random(seed)) == model.crash_image(random.Random(seed))


def run_differential(buf: StoreBuffer, model: FullCopyBuffer, operations, seed: int) -> None:
    assert_same(buf, model, seed)
    for name, *args in operations:
        assert getattr(buf, name)(*args) == getattr(model, name)(*args)
        assert_same(buf, model, seed)


@settings(max_examples=150, deadline=None)
@given(ops, st.integers(0, 2**32))
def test_fresh_buffer_matches_full_copy_model(operations, seed):
    run_differential(StoreBuffer(SIZE), FullCopyBuffer(SIZE), operations, seed)


@settings(max_examples=60, deadline=None)
@given(ops, st.integers(0, 2**32))
def test_image_booted_buffer_matches_full_copy_model(operations, seed):
    image = random.Random(seed).randbytes(SIZE)
    run_differential(StoreBuffer(SIZE, image), FullCopyBuffer(SIZE, image), operations, seed)


def test_drain_with_dirty_and_flushed_unfenced_lines():
    """The three states a line can be in when drain runs: stored only,
    flushed and not fenced, fenced and stored again."""
    buf, model = StoreBuffer(SIZE), FullCopyBuffer(SIZE)
    operations = [
        ("store", 0, b"dirty, never flushed"),
        ("store", 1024, b"flushed, never fenced"),
        ("flush", 1024, 64),
        ("nt_store", 2048, b"fenced"),
        ("fence",),
        ("store", 2050, b"and stored again"),
        ("drain",),
        ("store", 4096, b"after the drain"),
        ("drain",),
    ]
    run_differential(buf, model, operations, seed=1)
    assert bytes(buf.durable) == bytes(buf.working)
    assert not buf.dirty and not buf.has_pending()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fence_with_a_line_stored_again_after_its_flush(seed):
    """A fence that finds lines still dirty, which no workload in the
    repo produces: the line flushed and then stored again is copied as
    it stands and stays in ``dirty``, the never-flushed line stays a
    crash candidate. The seeded crash image is compared after every
    step."""
    buf, model = StoreBuffer(SIZE), FullCopyBuffer(SIZE)
    operations = [
        ("store", 8, b"first version of the line"),
        ("flush", 0, 64),
        ("store", 16, b"same line, stored again"),
        ("store", 512, b"dirty and never flushed"),
        ("fence",),
        ("store", 40, b"and once more after the fence"),
        ("nt_store", 1024, b"queued behind the dirty line"),
        ("fence",),
        ("drain",),
    ]
    run_differential(buf, model, operations, seed)
    assert bytes(buf.durable) == bytes(buf.working)
    assert not buf.dirty and not buf.has_pending()


def test_image_size_must_match():
    with pytest.raises(OutOfRangeError):
        StoreBuffer(4096, b"short")


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_from_image_never_aliases_its_source(kind):
    src = kind(b"\x11" * 4096)
    device = NvmDevice.from_image(src)
    # device -> source
    device.nt_store(0, b"\x22" * 64)
    device.fence()
    device.store(128, b"\x33" * 8)
    device.drain()
    assert src == b"\x11" * 4096
    # the two images are distinct objects too
    device.store(256, b"\x44" * 8)
    assert bytes(device.buffer.durable[256:264]) == b"\x11" * 8
    # source -> device
    if kind is bytearray:
        src[512:520] = b"\x55" * 8
        assert device.load(512, 8) == b"\x11" * 8
        assert bytes(device.buffer.durable[512:520]) == b"\x11" * 8


def test_from_image_of_a_live_durable_image_does_not_alias_it():
    """The crash-check pipeline boots the second recovery straight from
    the first device's durable image."""
    first = NvmDevice.from_image(bytes(4096))
    second = NvmDevice.from_image(first.buffer.durable)
    second.nt_store(0, b"\x77" * 8)
    second.fence()
    assert bytes(first.buffer.durable[:8]) == bytes(8)
    first.nt_store(64, b"\x66" * 8)
    first.fence()
    assert second.load(64, 8) == bytes(8)


def test_gigabyte_mount_costs_what_it_touches():
    """A 1 GB device is two 1 GB images. Mount, a 1 MB file, write +
    fsync, drain and unmount may only pay for the pages they write."""
    script = textwrap.dedent(
        """
        import resource
        from repro.core import MgspFilesystem

        def rss_mb():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        before = rss_mb()
        fs = MgspFilesystem(device_size=1 << 30)
        handle = fs.create("f", capacity=1 << 20)
        fs.device.drain()
        handle.write(0, b"x" * (1 << 20))
        handle.fsync()
        fs.device.drain()
        assert handle.read(0, 1 << 20) == b"x" * (1 << 20)
        fs.shutdown()
        print(rss_mb() - before)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    grown_mb = float(out.stdout.strip())
    assert grown_mb < 64, f"a 1 GB mount grew RSS by {grown_mb:.0f} MB"
