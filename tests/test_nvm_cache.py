"""StoreBuffer semantics: visibility, flush/fence ordering, crash images."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.cache import StoreBuffer
from repro.util import CACHE_LINE

SIZE = 1 << 16


@pytest.fixture
def buf():
    return StoreBuffer(SIZE)


class TestVisibility:
    def test_load_sees_latest_store(self, buf):
        buf.store(100, b"hello")
        assert buf.load(100, 5) == b"hello"

    def test_store_is_not_durable(self, buf):
        buf.store(100, b"hello")
        assert buf.snapshot_durable()[100:105] == b"\0" * 5

    def test_flush_alone_is_not_durable(self, buf):
        buf.store(100, b"hello")
        buf.flush(100, 5)
        assert buf.snapshot_durable()[100:105] == b"\0" * 5

    def test_flush_fence_is_durable(self, buf):
        buf.store(100, b"hello")
        buf.flush(100, 5)
        buf.fence()
        assert buf.snapshot_durable()[100:105] == b"hello"

    def test_persist_helper(self, buf):
        buf.store(200, b"xyz")
        buf.persist(200, 3)
        assert buf.snapshot_durable()[200:203] == b"xyz"

    def test_fence_without_flush_persists_nothing(self, buf):
        buf.store(100, b"hello")
        buf.fence()
        assert buf.snapshot_durable()[100:105] == b"\0" * 5

    def test_flush_covers_whole_cache_lines(self, buf):
        buf.store(0, b"a" * 128)
        # Flushing one byte flushes its whole line.
        buf.flush(10, 1)
        buf.fence()
        durable = buf.snapshot_durable()
        assert durable[0:CACHE_LINE] == b"a" * CACHE_LINE
        assert durable[CACHE_LINE : 2 * CACHE_LINE] == b"\0" * CACHE_LINE

    def test_flush_returns_line_count(self, buf):
        buf.store(0, b"a" * 256)
        assert buf.flush(0, 256) == 4
        assert buf.flush(0, 256) == 0  # already clean

    def test_drain_persists_everything(self, buf):
        buf.store(0, b"a" * 1000)
        buf.store(5000, b"b" * 10)
        buf.drain()
        assert buf.snapshot_durable()[:1000] == b"a" * 1000
        assert buf.snapshot_durable()[5000:5010] == b"b" * 10
        assert not buf.dirty and not buf.has_pending()


class TestBounds:
    def test_store_out_of_range(self, buf):
        with pytest.raises(OutOfRangeError):
            buf.store(SIZE - 2, b"abc")

    def test_load_out_of_range(self, buf):
        with pytest.raises(OutOfRangeError):
            buf.load(SIZE, 1)

    def test_negative_offset(self, buf):
        with pytest.raises(OutOfRangeError):
            buf.store(-1, b"a")


class TestAtomicity:
    def test_atomic_store_requires_alignment(self, buf):
        with pytest.raises(TornWriteError):
            buf.atomic_store_u64(9, 1)

    def test_atomic_store_roundtrip(self, buf):
        buf.atomic_store_u64(64, 0xDEADBEEFCAFEBABE)
        assert buf.load_u64(64) == 0xDEADBEEFCAFEBABE

    def test_aligned_u64_never_tears_in_crash_image(self, buf):
        buf.atomic_store_u64(128, 0x1111111111111111)
        for trial in range(20):
            image = buf.crash_image(rng=random.Random(trial))
            word = bytes(image[128:136])
            assert word in (b"\0" * 8, (0x1111111111111111).to_bytes(8, "little"))


class TestCrashImages:
    def test_unfenced_words_listed(self, buf):
        buf.store(0, b"x" * 16)
        assert buf.unfenced_words() == [0, 8]

    def test_crash_image_with_no_persistence(self, buf):
        buf.store(0, b"x" * 16)
        image = buf.crash_image(persist_words=[])
        assert bytes(image[:16]) == b"\0" * 16

    def test_crash_image_with_full_persistence(self, buf):
        buf.store(0, b"x" * 16)
        image = buf.crash_image(persist_words=[0, 8])
        assert bytes(image[:16]) == b"x" * 16

    def test_crash_image_partial_words(self, buf):
        buf.store(0, b"x" * 16)
        image = buf.crash_image(persist_words=[8])
        assert bytes(image[:8]) == b"\0" * 8
        assert bytes(image[8:16]) == b"x" * 8

    def test_crash_image_rejects_non_candidate_words(self, buf):
        buf.store(0, b"x" * 8)
        with pytest.raises(OutOfRangeError):
            buf.crash_image(persist_words=[512])

    def test_flushed_but_unfenced_may_or_may_not_persist(self, buf):
        buf.store(0, b"x" * 8)
        buf.flush(0, 8)
        assert buf.unfenced_words() == [0]
        lost = buf.crash_image(persist_words=[])
        kept = buf.crash_image(persist_words=[0])
        assert bytes(lost[:8]) == b"\0" * 8
        assert bytes(kept[:8]) == b"x" * 8

    def test_fenced_data_survives_every_crash(self, buf):
        buf.store(0, b"safe....")
        buf.persist(0, 8)
        buf.store(100, b"racy....")
        for trial in range(10):
            image = buf.crash_image(rng=random.Random(trial))
            assert bytes(image[:8]) == b"safe...."

    @given(st.binary(min_size=1, max_size=200), st.integers(0, 1000))
    def test_crash_image_word_granular(self, data, offset):
        buf = StoreBuffer(SIZE)
        buf.store(offset, data)
        image = buf.crash_image(rng=random.Random(1))
        # Every aligned 8-byte word is either fully old or fully new.
        start = (offset // 8) * 8
        end = ((offset + len(data) + 7) // 8) * 8
        for w in range(start, end, 8):
            word = bytes(image[w : w + 8])
            assert word in (b"\0" * 8, bytes(buf.working[w : w + 8]))
