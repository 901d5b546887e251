"""Crash-point enumeration parity (ISSUE 3 satellites).

``count_events`` must equal the number of times an armed plan's
``on_event`` hook would fire — per flush *call* (not per flushed line),
and per *element* inside the vectorized ``_v`` device entry points. A
partial batch interrupted by a crash must leave the device (buffer AND
counters) exactly where the equivalent unbatched sequence would.
"""

from __future__ import annotations

import pytest

from repro.errors import CrashRequested
from repro.nvm.crash import CrashPlan, count_events, counting_plan
from repro.nvm.device import NvmDevice

SIZE = 1 << 20


def stats_tuple(device):
    s = device.stats
    return (s.stores, s.stored_bytes, s.flush_calls, s.flushed_lines, s.fences, s.loads)


class TestFlushCallCounting:
    def test_flush_counts_calls_not_lines(self):
        device = NvmDevice(SIZE)
        device.store(0, b"x" * 256)  # 4 cache lines
        device.flush(0, 256)
        assert device.stats.flush_calls == 1
        assert device.stats.flushed_lines == 4

    def test_flush_of_clean_lines_still_counts_a_call(self):
        device = NvmDevice(SIZE)
        device.store(0, b"x" * 8)
        device.persist(0, 8)
        before = device.stats.flush_calls
        device.flush(0, 8)  # clean: zero lines, but the clwb call happened
        assert device.stats.flush_calls == before + 1
        assert device.stats.flushed_lines == 1  # unchanged from persist

    def test_flush_v_counts_per_element(self):
        device = NvmDevice(SIZE)
        device.store(0, b"x" * 64)
        device.store(4096, b"y" * 64)
        device.flush_v([(0, 64), (4096, 64), (8192, 64)])  # last range clean
        assert device.stats.flush_calls == 3
        assert device.stats.flushed_lines == 2


def run_ops(device):
    """A mixed single-op + vectorized op stream touching every entry
    point that emits crash-plan events."""
    device.store(0, b"a" * 100)
    device.flush(0, 100)
    device.fence()
    device.store_v([(256, b"b" * 64), (512, b"c" * 32), (1024, b"d" * 200)])
    device.flush_v([(256, 64), (512, 32), (1024, 200)])
    device.fence()
    device.nt_store_v([(4096, b"e" * 96), (8192, b"f" * 8)])
    device.fence()
    device.store_word_v([(16384, 7), (16392, 9), (16400, 11)])
    device.fence()
    device.nt_store(32768, b"g" * 64)
    device.atomic_store_u64(65536, 42)
    device.persist(65536, 8)


class TestEnumerationParity:
    def test_count_events_equals_events_fired(self):
        device = NvmDevice(SIZE)
        plan = counting_plan()
        device.attach(plan)
        base = device.stats.snapshot()
        run_ops(device)
        assert plan.count == count_events(device, since=base)

    def test_parity_holds_for_each_kind(self):
        for kind in ("store", "flush", "fence"):
            device = NvmDevice(SIZE)
            plan = counting_plan(kinds={kind})
            device.attach(plan)
            run_ops(device)
            assert plan.count == count_events(device, kinds={kind}), kind

    def test_unarmed_run_produces_identical_counters(self):
        """A counting plan consumes whole batches; the census must
        still see the same DeviceStats as an unarmed run."""
        armed, unarmed = NvmDevice(SIZE), NvmDevice(SIZE)
        armed.attach(counting_plan())
        run_ops(armed)
        run_ops(unarmed)
        assert stats_tuple(armed) == stats_tuple(unarmed)
        assert bytes(armed.buffer.working) == bytes(unarmed.buffer.working)
        assert bytes(armed.buffer.durable) == bytes(unarmed.buffer.durable)

    def test_every_enumerated_point_fires(self):
        census_device = NvmDevice(SIZE)
        census = census_device.attach(counting_plan())
        run_ops(census_device)
        events = count_events(census_device)
        assert events == census.count
        for crash_after in range(events):
            device = NvmDevice(SIZE)
            device.attach(CrashPlan(crash_after))
            with pytest.raises(CrashRequested):
                run_ops(device)
        # One past the end must NOT fire.
        device = NvmDevice(SIZE)
        plan = device.attach(CrashPlan(events))
        run_ops(device)
        assert not plan.fired


def batched_vs_unbatched(batched_ops, unbatched_ops, crash_after):
    """Run both under CrashPlan(crash_after); return the two devices."""
    devices = []
    for ops in (batched_ops, unbatched_ops):
        device = NvmDevice(SIZE)
        device.store(0, b"seed" * 16)  # some pre-existing dirty state
        device.attach(CrashPlan(crash_after))
        try:
            ops(device)
            crashed = False
        except CrashRequested:
            crashed = True
        devices.append((device, crashed))
    return devices


WRITES = [(256, b"b" * 64), (512, b"c" * 32), (1024, b"d" * 200), (4096, b"e" * 8)]
WORDS = [(16384, 7), (16392, 9), (16400, 11)]
RANGES = [(256, 64), (512, 32), (1024, 200)]


class TestPartialBatchEquivalence:
    """A crash inside a `_v` batch must be indistinguishable from the
    same crash inside the equivalent single-op loop."""

    def assert_same(self, pair):
        (batched, crashed_b), (unbatched, crashed_u) = pair
        assert crashed_b == crashed_u
        assert stats_tuple(batched) == stats_tuple(unbatched)
        assert bytes(batched.buffer.working) == bytes(unbatched.buffer.working)
        assert bytes(batched.buffer.durable) == bytes(unbatched.buffer.durable)
        assert batched.unfenced_words() == unbatched.unfenced_words()

    @pytest.mark.parametrize("crash_after", range(len(WRITES) + 1))
    def test_store_v(self, crash_after):
        self.assert_same(
            batched_vs_unbatched(
                lambda d: d.store_v(WRITES),
                lambda d: [d.store(o, p) for o, p in WRITES],
                crash_after,
            )
        )

    @pytest.mark.parametrize("crash_after", range(len(WRITES) + 1))
    def test_nt_store_v(self, crash_after):
        self.assert_same(
            batched_vs_unbatched(
                lambda d: d.nt_store_v(WRITES),
                lambda d: [d.nt_store(o, p) for o, p in WRITES],
                crash_after,
            )
        )

    @pytest.mark.parametrize("crash_after", range(len(RANGES) + 1))
    def test_flush_v(self, crash_after):
        def setup_then_flush_v(d):
            d.store_v(WRITES[:3])
            d.flush_v(RANGES)

        def setup_then_flush_loop(d):
            for o, p in WRITES[:3]:
                d.store(o, p)
            for o, ln in RANGES:
                d.flush(o, ln)

        self.assert_same(
            batched_vs_unbatched(setup_then_flush_v, setup_then_flush_loop, 3 + crash_after)
        )

    @pytest.mark.parametrize("crash_after", range(2 * len(WORDS) + 1))
    def test_store_word_v(self, crash_after):
        def unbatched(d):
            for off, value in WORDS:
                d.atomic_store_u64(off, value)
                d.flush(off, 8)

        self.assert_same(
            batched_vs_unbatched(lambda d: d.store_word_v(WORDS), unbatched, crash_after)
        )

    def test_store_word_v_fused_path_matches_delegated_stats(self):
        armed, unarmed = NvmDevice(SIZE), NvmDevice(SIZE)
        armed.attach(counting_plan())
        armed.store_word_v(WORDS)
        unarmed.store_word_v(WORDS)
        assert stats_tuple(armed) == stats_tuple(unarmed)
        assert bytes(armed.buffer.working) == bytes(unarmed.buffer.working)
