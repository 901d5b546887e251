"""TraceRecorder and OpTrace."""

from __future__ import annotations

from repro.nvm.timing import OptaneTiming, TimingModel
from repro.sim.trace import OpTrace, TraceRecorder


class TestOpTrace:
    def test_duration_sums_compute_and_io(self):
        tr = OpTrace(segments=[("compute", 10.0), ("io", 20.0)])
        assert tr.duration_ns() == 30.0

    def test_duration_charges_lock_events(self):
        tr = OpTrace(segments=[("lock", "k", "W"), ("unlock", "k")])
        assert tr.duration_ns(lock_ns=5.0) == 10.0

    def test_io_ns(self):
        tr = OpTrace(segments=[("compute", 10.0), ("io", 20.0), ("io", 5.0, 50.0)])
        assert tr.io_ns() == 25.0

    def test_lock_keys(self):
        tr = OpTrace(segments=[("lock", "a", "R"), ("lock", "b", "W"), ("unlock", "a")])
        assert tr.lock_keys() == ["a", "b"]


class TestRecorder:
    def test_op_lifecycle(self):
        rec = TraceRecorder(OptaneTiming())
        rec.begin_op("write")
        rec.compute(100)
        trace = rec.end_op()
        assert trace.name == "write"
        assert trace.duration_ns() == 100
        assert rec.take_completed() == [trace]
        assert rec.take_completed() == []

    def test_ambient_costs_are_kept(self):
        rec = TraceRecorder(OptaneTiming())
        rec.compute(50)  # outside any op
        rec.begin_op("write")
        rec.compute(10)
        rec.end_op()
        traces = rec.take_completed()
        assert [t.name for t in traces] == ["ambient", "write"]
        assert traces[0].duration_ns() == 50

    def test_io_write_carries_occupancy(self):
        rec = TraceRecorder(OptaneTiming())
        rec.begin_op("x")
        rec.io_write(4096)
        (seg,) = rec.end_op().segments
        assert seg[0] == "io"
        assert len(seg) == 3
        assert seg[2] >= seg[1]  # channel occupancy >= visible latency

    def test_io_read_and_flush_and_fence(self):
        rec = TraceRecorder(OptaneTiming())
        rec.begin_op("x")
        rec.io_read(100)
        rec.io_flush(2)
        rec.io_flush(0)  # no lines -> no segment
        rec.io_fence()
        segs = rec.end_op().segments
        assert [s[0] for s in segs] == ["io", "io", "compute"]

    def test_zero_compute_dropped(self):
        rec = TraceRecorder(OptaneTiming())
        rec.begin_op("x")
        rec.compute(0)
        assert rec.end_op().segments == []


class TestTimingModel:
    def test_media_costs_monotone_in_size(self):
        t = OptaneTiming()
        assert t.media_write_ns(8192) > t.media_write_ns(4096) > 0
        assert t.media_read_ns(8192) > t.media_read_ns(4096) > 0
        assert t.media_write_ns(0) == 0.0
        assert t.media_read_ns(0) == 0.0

    def test_overrides(self):
        t = OptaneTiming(syscall_ns=123.0)
        assert t.syscall_ns == 123.0

    def test_zero_default_model(self):
        t = TimingModel()
        assert t.media_write_ns(100) == 0.0
        assert t.dram_copy_ns(100) == 0.0
