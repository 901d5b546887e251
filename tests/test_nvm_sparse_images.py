"""``StoreBuffer`` images cost what was touched — and hold what the
full-copy model holds.

A fresh image is lazily zero-filled, a buffer booted from content holds
copy-on-write pages over it (``PagedImage``) instead of copies, and
``working`` is the only full image: ``durable`` is derived from it and
an undo log of the stores not yet fenced. None of that may be
observable: every sequence of persistence ops must leave the same
working image, durable image, crash candidates (in order) and seeded
crash image as ``device_oracle.FullCopyBuffer``, which keeps two eager
``bytearray`` images and does whole-image passes over them.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfRangeError
from repro.nvm.cache import PAGE, PagedImage, StoreBuffer
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


#: an image-booted device that ends inside a page: 3 pages + 3 lines
BOOTED_SIZE = 3 * PAGE + 192
_paged_write = st.integers(PAGE, BOOTED_SIZE).flatmap(
    lambda n: st.tuples(
        st.sampled_from(["store", "nt_store"]),
        st.integers(0, BOOTED_SIZE - n),
        st.integers(1, 255).map(lambda fill: bytes([fill]) * n),
    )
)
_booted_word = st.tuples(
    st.integers(0, BOOTED_SIZE // 8 - 1).map(lambda w: w * 8), st.integers(0, 2**64 - 1)
)
booted_ops = st.lists(
    st.tuples(
        st.integers(0, 3),  # which of the buffers booted so far takes the op
        st.one_of(
            st.tuples(st.just("store"), st.integers(0, BOOTED_SIZE - 200), _data),
            st.tuples(st.just("nt_store"), st.integers(0, BOOTED_SIZE - 200), _data),
            _paged_write,  # 1-3 pages, straddling page boundaries and the short tail
            st.tuples(st.just("nt_store_words"), st.lists(_booted_word, min_size=1, max_size=4)),
            st.tuples(st.just("flush"), st.integers(0, BOOTED_SIZE - 256), st.integers(1, 256)),
            st.tuples(st.just("fence")),
            st.tuples(st.just("drain")),
            st.tuples(st.just("boot"), st.sampled_from(["working", "durable"])),
        ),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(booted_ops, st.integers(0, 2**32))
def test_image_booted_buffer_matches_full_copy_model(operations, seed):
    """``boot`` boots one more buffer from a live image of an earlier
    one, mid-sequence. Every op then goes to one of them and *all* are
    compared with their models, so a write through a page shared with a
    relative — in either direction — shows up as a difference."""
    image = random.Random(seed).randbytes(BOOTED_SIZE)
    pairs = [(StoreBuffer(BOOTED_SIZE, image), FullCopyBuffer(BOOTED_SIZE, image))]
    for target, (name, *args) in operations:
        buf, model = pairs[target % len(pairs)]
        if name == "boot":
            source, copy = getattr(buf, args[0]), bytes(getattr(model, args[0]))
            pairs.append((StoreBuffer(BOOTED_SIZE, source), FullCopyBuffer(BOOTED_SIZE, copy)))
        else:
            assert getattr(buf, name)(*args) == getattr(model, name)(*args)
        for buf, model in pairs:
            assert_same(buf, model, seed)


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_line_dirty_across_a_fence_of_other_lines(seed):
    """The fence branch no workload reaches: a cached store is still
    dirty when a fence makes other lines durable, so the undo log keeps
    that line's durable bytes and nothing else. A second store to the
    same line and its flush + fence then make it durable, and
    ``durable`` is ``working`` itself again."""
    buf, model = StoreBuffer(SIZE), FullCopyBuffer(SIZE)
    operations = [
        ("store", 200, b"cached, stays dirty"),
        ("nt_store", 1024, b"another line, fenced"),
        ("fence",),
        ("store", 196, b"the same line again"),
        ("flush", 192, 64),
        ("fence",),
    ]
    run_differential(buf, model, operations, seed)
    assert buf.durable is buf.working
    assert not buf.dirty and not buf.has_pending()


def booted_pair():
    image = random.Random(5).randbytes(BOOTED_SIZE)
    return StoreBuffer(BOOTED_SIZE, image), FullCopyBuffer(BOOTED_SIZE, image)


@pytest.mark.parametrize("make", [lambda: (StoreBuffer(SIZE), FullCopyBuffer(SIZE)), booted_pair])
def test_crash_image_is_immutable_bytes_equal_to_the_models(make):
    buf, model = make()
    for name, *args in [
        ("store", 8, b"dirty, crosses into line two" * 4),
        ("nt_store", PAGE - 16, b"flushed, straddles a page" * 3),
        ("nt_store", 2 * PAGE + 64, b"fenced"),
        ("fence",),
        ("store", 3 * PAGE + 100, b"in the short tail"),
    ]:
        getattr(buf, name)(*args)
        getattr(model, name)(*args)
    words = buf.unfenced_words()
    assert len(words) > 8
    for probability in (0.0, 0.5, 1.0):  # DROP_ALL, seeded RANDOM, KEEP_ALL
        image = buf.crash_image(rng=random.Random(3), persist_probability=probability)
        assert type(image) is bytes
        assert image == model.crash_image(random.Random(3), probability)
    assert buf.crash_image(persist_words=()) == bytes(model.durable)
    assert buf.crash_image(persist_words=words) == bytes(model.working)
    picked = [words[7], words[2], words[-1], words[2]]  # unsorted, one twice
    expected = bytearray(model.durable)
    for off in picked:
        expected[off : off + 8] = model.working[off : off + 8]
    assert buf.crash_image(persist_words=picked) == expected
    with pytest.raises(OutOfRangeError):
        buf.crash_image(persist_words=[2 * PAGE + 64])  # fenced: not a candidate


class TestPagedImageEquality:
    """``==`` is by content; over one base object it reads only the
    pages private to either side, so each side's pages must count."""

    BASE = random.Random(9).randbytes(BOOTED_SIZE)

    def test_a_byte_in_a_page_private_to_the_right_hand_side_only(self):
        left, right = PagedImage(self.BASE), PagedImage(self.BASE)
        left[0:4] = b"both"
        right[0:4] = b"both"
        assert left == right
        right[2 * PAGE + 5 : 2 * PAGE + 6] = bytes([self.BASE[2 * PAGE + 5] ^ 1])
        assert left != right and right != left
        assert not left == right

    def test_a_page_rewritten_to_its_original_content_is_equal(self):
        left, right = PagedImage(self.BASE), PagedImage(self.BASE)
        right[PAGE - 8 : PAGE + 8] = bytes(16)
        assert left != right
        right[PAGE - 8 : PAGE + 8] = self.BASE[PAGE - 8 : PAGE + 8]
        assert sorted(right.pages) == [0, 1] and not left.pages
        assert left == right and bytes(right) == self.BASE

    def test_different_base_objects_compare_by_content(self):
        left, right = PagedImage(self.BASE), PagedImage(bytearray(self.BASE))
        assert left.base is not right.base
        assert left == right
        right[BOOTED_SIZE - 1 : BOOTED_SIZE] = bytes([self.BASE[-1] ^ 1])
        assert left != right

    def test_against_bytes_by_content(self):
        image = PagedImage(self.BASE)
        image[PAGE + 1 : PAGE + 3] = b"hi"
        expected = self.BASE[: PAGE + 1] + b"hi" + self.BASE[PAGE + 3 :]
        assert image == expected and expected == image
        assert image == bytearray(expected) and image == memoryview(expected)
        assert image != self.BASE and image != expected[:-1]
        assert image != 0 and image is not None

    def test_a_short_or_long_assignment_is_refused(self):
        image = PagedImage(self.BASE)
        for data in (b"", b"123", b"12345"):
            with pytest.raises(ValueError):
                image[PAGE - 2 : PAGE + 2] = data
        assert not image.pages


class TestPagedImageOnePageStore:
    """A slice inside one page is one page lookup and one slice
    assignment; it must leave what the per-page loop left."""

    BASE = random.Random(11).randbytes(BOOTED_SIZE)

    @pytest.mark.parametrize("start, stop", [
        (PAGE, PAGE + 1),  # the page's first byte
        (2 * PAGE - 1, 2 * PAGE),  # its last byte
        (PAGE, 2 * PAGE),  # the whole page
        (PAGE + 100, 2 * PAGE),  # ending exactly on the page boundary
    ], ids=["first-byte", "last-byte", "whole-page", "ends-on-boundary"])
    def test_a_store_inside_one_page_matches_bytes(self, start, stop):
        image = PagedImage(self.BASE)
        expected = bytearray(self.BASE)
        for fill in (0xA5, 0x3C):  # a new private page, then the same one again
            data = bytes([fill]) * (stop - start)
            image[start:stop] = data
            expected[start:stop] = data
            assert image == bytes(expected) and bytes(image) == bytes(expected)
            assert image[start:stop] == data
            assert sorted(image.pages) == [1]
            assert all(len(page) == PAGE for page in image.pages.values())

    def test_a_wrong_length_inside_one_page_is_refused(self):
        image = PagedImage(self.BASE)
        with pytest.raises(ValueError):
            image[10:14] = b"123"
        assert not image.pages
        image[PAGE + 10 : PAGE + 14] = b"1234"
        for data in (b"", b"123", b"12345"):
            with pytest.raises(ValueError):
                image[PAGE + 10 : PAGE + 14] = data
        assert sorted(image.pages) == [1]
        assert all(len(page) == PAGE for page in image.pages.values())
        assert image[PAGE + 10 : PAGE + 14] == b"1234" and len(bytes(image)) == BOOTED_SIZE


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


def test_booting_from_bytes_copies_pages_not_the_image():
    """A 64 MB image, one 4 KB write made durable: the boot shares the
    caller's bytes, so the whole life of the device allocates a few
    pages. (Two heap copies, 128 MB, before images were paged.)"""
    image = bytes(64 << 20)
    tracemalloc.start()
    try:
        device = NvmDevice.from_image(image)
        device.nt_store(PAGE + 100, b"\x5a" * PAGE)
        device.fence()
        device.drain()
        assert device.load(PAGE + 100, PAGE) == b"\x5a" * PAGE
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"booting from bytes allocated {peak >> 20} MB"
    assert device.buffer.working.base is image and device.buffer.durable.base is image
    assert image[PAGE + 100 : 2 * PAGE + 100] == bytes(PAGE)


def test_a_booted_devices_crash_image_is_one_copy():
    """A 4 MB booted device with one unfenced 64 B store: composing its
    crash image allocates the image once (joining copied slices of the
    paged image made it twice, 8 MB)."""
    size = 4 << 20
    device = NvmDevice.from_image(bytes(size))
    device.store(3 * PAGE + 64, b"\x33" * 64)
    tracemalloc.start()
    try:
        image = device.crash_image(persist_words=[3 * PAGE + 64])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image[3 * PAGE + 64 : 3 * PAGE + 80] == b"\x33" * 8 + bytes(8)
    assert peak < size + (size >> 4), f"composing peaked at {peak / size:.2f} images"


#: ``rss_mb()`` for the child scripts: its own peak RSS (``VmHWM``).
#: ``ru_maxrss`` will not do: Linux carries it across ``execve``, so a
#: child of this test process starts at this process's peak (~40 MB
#: here, more late in the suite) and under-reports what it grew.
_RSS_MB = """
def rss_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
"""


def _child_rss_growth(script):
    """Run *script* in a fresh interpreter (its own peak RSS, untouched
    by this process's heap) with :data:`_RSS_MB` defined, and return the
    MB figures it prints."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _RSS_MB + script],
        env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return [float(mb) for mb in out.stdout.split()]


def test_gigabyte_mount_costs_what_it_touches():
    """A 1 GB device is one 1 GB image. Mount, a 1 MB file, write +
    fsync, drain and unmount may only pay for the pages they write."""
    script = textwrap.dedent(
        """
        from repro.core import MgspFilesystem

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
    (grown_mb,) = _child_rss_growth(script)
    assert grown_mb < 64, f"a 1 GB mount grew RSS by {grown_mb:.0f} MB"


def test_reading_a_fresh_image_allocates_nothing():
    """A fresh device's image is a private anonymous mapping, so a read
    of a page nobody wrote maps the kernel's zero page. Hashing a whole
    256 MB durable image (the e2e digest) may not grow RSS by the device
    size, and composing a crash image may pay for the ``bytes`` it
    returns and for nothing else. (A shared mapping allocated every page
    it read: +256 MB for the hash, +512 MB after the compose.)"""
    script = textwrap.dedent(
        """
        import hashlib
        from repro.core import MgspFilesystem
        from repro.errors import CrashRequested
        from repro.nvm.crash import CrashPlan, CrashPolicy, compose_image

        before = rss_mb()
        fs = MgspFilesystem(device_size=256 << 20)
        handle = fs.create("f", capacity=1 << 20)
        fs.device.drain()
        hashlib.sha256(fs.device.buffer.durable).hexdigest()
        hashed = rss_mb() - before
        fs.device.attach(CrashPlan(40))
        try:
            handle.write(0, b"x" * (1 << 16))
            raise AssertionError("the write did not reach the crash point")
        except CrashRequested:
            pass
        image = compose_image(fs.device, CrashPolicy.RANDOM, seed=1)
        assert len(image) == 256 << 20
        print(hashed, rss_mb() - before)
        """
    )
    hashed_mb, composed_mb = _child_rss_growth(script)
    assert hashed_mb < 64, f"hashing a fresh 256 MB image grew RSS by {hashed_mb:.0f} MB"
    assert composed_mb < 256 + 64, f"one 256 MB crash image grew RSS by {composed_mb:.0f} MB"


def test_a_fenced_page_is_resident_once():
    """``working`` is the device's only full image and a fence with
    nothing dirty drops the undo log, so a fresh 256 MB device that
    non-temporally stores and fences 32 MB in 4 KB stores holds each
    page it wrote once. (A second, fenced image held each one twice:
    +64 MB.)"""
    script = textwrap.dedent(
        """
        from repro.nvm.device import NvmDevice

        before = rss_mb()
        device = NvmDevice(256 << 20)
        block = b"\\x5a" * 4096
        for offset in range(0, 32 << 20, 4096):
            device.nt_store(offset, block)
            device.fence()
        assert device.load((32 << 20) - 4096, 4096) == block
        assert device.unfenced_words() == []
        print(rss_mb() - before)
        """
    )
    (grown_mb,) = _child_rss_growth(script)
    assert grown_mb < 48, f"32 MB stored and fenced grew RSS by {grown_mb:.0f} MB"
