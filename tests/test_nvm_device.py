"""NvmDevice: counters, tracer wiring, crash plans, remounting."""

from __future__ import annotations

import pytest

from repro.errors import CrashRequested, OutOfRangeError
from repro.nvm.crash import CrashPlan, CrashPolicy
from repro.nvm.device import DeviceStats, NvmDevice
from repro.nvm.timing import OptaneTiming
from repro.sim.trace import TraceRecorder


class TestCounters:
    def test_store_counts_bytes(self, device):
        device.store(0, b"x" * 100)
        assert device.stats.stored_bytes == 100
        assert device.stats.stores == 1

    def test_nt_store_counts_and_flushes(self, device):
        device.nt_store(0, b"x" * 128)
        assert device.stats.stored_bytes == 128
        assert device.stats.flushed_lines == 2

    def test_load_counts(self, device):
        device.store(0, b"x" * 10)
        device.load(0, 10)
        assert device.stats.loaded_bytes == 10
        assert device.stats.loads == 1

    @pytest.mark.parametrize(
        "boot", [NvmDevice, lambda size: NvmDevice.from_image(bytes(size))], ids=["fresh", "booted"]
    )
    def test_negative_length_load_is_refused_before_it_is_counted_or_priced(self, boot):
        """``load(0, -5)`` used to return size - 5 bytes, take 5 off
        ``loaded_bytes`` and price a negative read."""
        device = boot(64 << 10)
        recorder = device.attach(TraceRecorder(OptaneTiming()))
        device.store(0, b"volatile")
        device.nt_store(64, b"durable")
        device.fence()

        def state():
            return vars(device.stats.snapshot()), bytes(device.buffer.working), bytes(device.buffer.durable)

        before = state()
        recorder.begin_op("x")
        for offset, length in ((0, -5), (100, -1), (device.size, -device.size), (-8, 8), (8, device.size)):
            with pytest.raises(OutOfRangeError):
                device.load(offset, length)
            with pytest.raises(OutOfRangeError):
                device.buffer.load(offset, length)
        assert recorder.end_op().segments == []
        assert state() == before
        assert device.load(device.size, 0) == b""  # the empty load at the end stays legal

    def test_fence_counts(self, device):
        device.fence()
        assert device.stats.fences == 1

    def test_snapshot_delta(self, device):
        device.store(0, b"x" * 10)
        snap = device.stats.snapshot()
        device.store(0, b"y" * 30)
        delta = device.stats.delta(snap)
        assert delta.stored_bytes == 30
        assert delta.stores == 1

    def test_write_amplification(self, device):
        device.nt_store(0, b"x" * 2048)
        assert device.write_amplification(api_bytes=1024) == 2.0
        assert device.write_amplification(api_bytes=0) == 0.0


class TestTracer:
    def test_media_ops_priced_through_tracer(self, device):
        recorder = TraceRecorder(OptaneTiming())
        device.attach(recorder)
        recorder.begin_op("x")
        device.nt_store(0, b"a" * 4096)
        device.fence()
        device.load(0, 4096)
        trace = recorder.end_op()
        kinds = [seg[0] for seg in trace.segments]
        assert "io" in kinds and "compute" in kinds
        assert trace.duration_ns() > 0

    def test_cached_store_is_cheap(self, device):
        recorder = TraceRecorder(OptaneTiming())
        device.attach(recorder)
        recorder.begin_op("x")
        device.store(0, b"a" * 4096)
        cached = recorder.end_op().duration_ns()
        recorder.begin_op("y")
        device.nt_store(4096, b"a" * 4096)
        media = recorder.end_op().duration_ns()
        assert cached < media / 3


class TestCrashPlan:
    def test_fires_after_n_events(self, device):
        device.attach(CrashPlan(crash_after=2, kinds={"store"}))
        device.store(0, b"a")
        device.store(8, b"b")
        with pytest.raises(CrashRequested):
            device.store(16, b"c")

    def test_fires_once(self, device):
        device.attach(CrashPlan(crash_after=0, kinds={"store"}))
        with pytest.raises(CrashRequested):
            device.store(0, b"a")
        device.store(8, b"b")  # plan already fired: no second crash

    def test_other_kinds_ignored(self, device):
        device.attach(CrashPlan(crash_after=0, kinds={"fence"}))
        device.store(0, b"a")
        device.flush(0, 1)
        with pytest.raises(CrashRequested):
            device.fence()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CrashPlan(crash_after=-1)


class TestRemount:
    def test_from_image_preserves_content(self, device):
        device.store(100, b"payload")
        device.persist(100, 7)
        image = device.crash_image(persist_words=[])
        new = NvmDevice.from_image(bytes(image))
        assert new.load(100, 7) == b"payload"
        assert new.size == device.size

    def test_from_image_is_fully_durable(self, device):
        device.store(0, b"abc")
        device.persist(0, 3)
        new = NvmDevice.from_image(bytes(device.crash_image(persist_words=[])))
        assert new.unfenced_words() == []


class TestCrashPolicyEnum:
    def test_members(self):
        assert CrashPolicy.DROP_ALL.value == "drop_all"
        assert CrashPolicy.KEEP_ALL.value == "keep_all"
        assert CrashPolicy.RANDOM.value == "random"
