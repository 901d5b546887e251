"""Array-native device core: bulk ``_v`` paths vs the op-by-op loop.

The bulk buffer paths (ISSUE 7) must be *invisible*: identical
``DeviceStats``, identical tracer cost segments, identical analysis-tap
event sequences, identical buffer state — including when a crash plan
fires mid-batch — and identical crash-image candidate order, so seeded
``choose_persist_words`` draws the same subset on either core.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from device_oracle import differing_words
from repro.errors import CrashRequested, OutOfRangeError
from repro.nvm.crash import CrashPlan
from repro.nvm.device import NvmDevice

SIZE = 1 << 18


class RecordingTracer:
    """Duck-typed tracer capturing every cost segment as a tuple."""

    def __init__(self):
        self.events = []

    def io_cached(self, nbytes):
        self.events.append(("cached", nbytes))

    def io_write(self, nbytes):
        self.events.append(("write", nbytes))

    def io_read(self, nbytes):
        self.events.append(("read", nbytes))

    def io_flush(self, nlines):
        self.events.append(("flush", nlines))

    def io_fence(self):
        self.events.append(("fence",))


class RecordingTap:
    """Duck-typed analysis tap capturing the persistence-event stream."""

    def __init__(self):
        self.events = []

    def on_store(self, offset, length, kind):
        self.events.append(("store", offset, length, kind))

    def on_flush(self, offset, length, nlines):
        self.events.append(("flush", offset, length, nlines))

    def on_fence(self):
        self.events.append(("fence",))

    def on_drain(self):
        self.events.append(("drain",))


def full_stats(device):
    return tuple(sorted(vars(device.stats).items()))


def buffer_state(device):
    buf = device.buffer
    return (
        bytes(buf.working),
        bytes(buf.durable),
        buf.unfenced_words(),
        buf.has_pending(),
    )


# Op batches: each entry is (kind, payload list) applied via one _v call
# on the batched device and an op-by-op loop on the reference device.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("store_v"),
            st.lists(
                st.tuples(st.integers(0, SIZE - 256), st.integers(1, 200)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("nt_store_v"),
            st.lists(
                st.tuples(st.integers(0, SIZE - 256), st.integers(1, 200)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("flush_v"),
            st.lists(
                st.tuples(st.integers(0, SIZE - 256), st.integers(1, 200)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(st.just("fence"), st.just([])),
    ),
    min_size=1,
    max_size=12,
)


def payload_for(offset, length, salt):
    rng = random.Random(offset * 1_000_003 + length * 97 + salt)
    return rng.randbytes(length)


def apply_batched(device, ops):
    for i, (kind, items) in enumerate(ops):
        if kind == "store_v":
            device.store_v([(off, payload_for(off, ln, i)) for off, ln in items])
        elif kind == "nt_store_v":
            device.nt_store_v([(off, payload_for(off, ln, i)) for off, ln in items])
        elif kind == "flush_v":
            device.flush_v(items)
        else:
            device.fence()


def apply_op_by_op(device, ops):
    for i, (kind, items) in enumerate(ops):
        if kind == "store_v":
            for off, ln in items:
                device.store(off, payload_for(off, ln, i))
        elif kind == "nt_store_v":
            for off, ln in items:
                device.nt_store(off, payload_for(off, ln, i))
        elif kind == "flush_v":
            for off, ln in items:
                device.flush(off, ln)
        else:
            device.fence()


class TestBulkPathParity:
    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_stats_state_and_crash_candidates_match(self, ops):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        apply_batched(batched, ops)
        apply_op_by_op(reference, ops)
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)
        # Same candidates in the same order -> same seeded crash image.
        image_b = batched.crash_image(rng=random.Random(7))
        image_r = reference.crash_image(rng=random.Random(7))
        assert bytes(image_b) == bytes(image_r)

    @given(ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_candidate_order_is_ascending_and_complete(self, ops):
        device = NvmDevice(SIZE)
        apply_batched(device, ops)
        words = device.unfenced_words()
        assert words == sorted(words)
        assert len(words) == len(set(words))
        assert words == differing_words(device.buffer.working, device.buffer.durable)

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_tracer_segments_match(self, ops):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        tracers = (batched.attach(RecordingTracer()), reference.attach(RecordingTracer()))
        apply_batched(batched, ops)
        apply_op_by_op(reference, ops)
        assert tracers[0].events == tracers[1].events
        assert full_stats(batched) == full_stats(reference)

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_analysis_tap_events_match(self, ops):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        taps = (batched.attach(RecordingTap()), reference.attach(RecordingTap()))
        apply_batched(batched, ops)
        apply_op_by_op(reference, ops)
        assert taps[0].events == taps[1].events
        assert full_stats(batched) == full_stats(reference)


class TestPartialBatchCrashParity:
    @given(ops_strategy, st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_mid_batch_crash_leaves_identical_state(self, ops, crash_after):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        batched.attach(CrashPlan(crash_after))
        reference.attach(CrashPlan(crash_after))
        fired_b = fired_r = False
        try:
            apply_batched(batched, ops)
        except CrashRequested:
            fired_b = True
        try:
            apply_op_by_op(reference, ops)
        except CrashRequested:
            fired_r = True
        assert fired_b == fired_r
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)
        image_b = batched.crash_image(rng=random.Random(11))
        image_r = reference.crash_image(rng=random.Random(11))
        assert bytes(image_b) == bytes(image_r)


class TestBulkErrorParity:
    """A bad element mid-batch must leave the same partial state and the
    same exception as the op-by-op loop (the bulk path validates first
    and falls back)."""

    def test_store_v_partial_application(self):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        writes = [(0, b"a" * 64), (128, b"b" * 64), (SIZE - 8, b"c" * 64)]
        with pytest.raises(OutOfRangeError):
            batched.store_v(writes)
        for off, data in writes[:2]:
            reference.store(off, data)
        with pytest.raises(OutOfRangeError):
            reference.store(*writes[2])
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)

    def test_nt_store_v_partial_application(self):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        writes = [(0, b"a" * 64), (SIZE - 8, b"c" * 64), (128, b"b" * 64)]
        with pytest.raises(OutOfRangeError):
            batched.nt_store_v(writes)
        reference.nt_store(*writes[0])
        with pytest.raises(OutOfRangeError):
            reference.nt_store(*writes[1])
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)
