"""Span mechanics: nesting, self-healing, conservation, NullSink."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.attribution import (
    UNATTRIBUTED,
    layer_of,
    time_breakdown,
    write_breakdown,
)
from repro.core import MgspFilesystem
from repro.obs.spans import NULL_SINK, NullSink, Telemetry, attach_telemetry


class FakeClock:
    def __init__(self):
        self.clock_ns = 0.0


def make_tel():
    clock = FakeClock()
    device = SimpleNamespace(stats=SimpleNamespace(stored_bytes=0))
    tel = Telemetry()
    tel.bind([clock], device)
    return tel, clock, device


def test_nested_spans_self_vs_inclusive():
    tel, clock, device = make_tel()
    outer = tel.span_begin("op.write")
    clock.clock_ns += 10
    inner = tel.span_begin("write.data")
    clock.clock_ns += 30
    device.stats.stored_bytes += 4096
    tel.span_end(inner)
    clock.clock_ns += 5
    tel.span_end(outer)

    data = tel.spans["write.data"]
    op = tel.spans["op.write"]
    assert data.total_ns == 30 and data.self_ns == 30
    assert data.self_bytes == 4096
    assert op.total_ns == 45
    assert op.self_ns == 15  # inclusive minus the nested span
    assert op.self_bytes == 0
    assert tel.attributed_ns() == 45
    assert tel.attributed_bytes() == 4096


def test_conservation_with_unattributed_residual():
    tel, clock, device = make_tel()
    clock.clock_ns += 7  # before any span: unattributed
    with tel.span("op.write"):
        clock.clock_ns += 13
        device.stats.stored_bytes += 100
    clock.clock_ns += 2  # after: unattributed
    device.stats.stored_bytes += 28  # outside any span

    times = dict(time_breakdown(tel))
    assert times[UNATTRIBUTED] == pytest.approx(9)
    assert sum(times.values()) == pytest.approx(tel.total_ns()) == pytest.approx(22)
    sizes = dict(write_breakdown(tel))
    assert sizes[UNATTRIBUTED] == 28
    assert sum(sizes.values()) == tel.total_bytes() == 128


def test_span_end_heals_orphaned_children():
    """An exception that unwinds past a child's span_end must not
    corrupt the stack: ending the parent discards the orphans."""
    tel, clock, _ = make_tel()
    outer = tel.span_begin("op.write")
    clock.clock_ns += 5
    orphan = tel.span_begin("write.data")
    clock.clock_ns += 5
    # exception unwinds here: orphan never closed
    tel.span_end(outer)
    assert tel.spans["op.write"].total_ns == 10
    # The orphan was discarded, not recorded...
    assert "write.data" not in tel.spans
    # ...and closing it late is a silent no-op, not a corruption.
    tel.span_end(orphan)
    assert "write.data" not in tel.spans
    assert not tel._stack


def test_span_contextmanager_closes_on_exception():
    tel, clock, _ = make_tel()
    with pytest.raises(RuntimeError):
        with tel.span("op.write"):
            clock.clock_ns += 4
            raise RuntimeError("boom")
    assert tel.spans["op.write"].count == 1
    assert not tel._stack


def test_multiple_clocks_sum():
    fg, bg = FakeClock(), FakeClock()
    tel = Telemetry()
    tel.bind([fg, bg], None)
    frame = tel.span_begin("flusher.drain")
    fg.clock_ns += 3
    bg.clock_ns += 40  # background flusher work counts too
    tel.span_end(frame)
    assert tel.spans["flusher.drain"].total_ns == 43
    assert tel.total_ns() == 43


def test_lock_wait_accounting():
    tel, _, _ = make_tel()
    key = ("block", 1, 7)
    tel.lock_wait(key, 100.0)
    tel.lock_wait(key, 50.0)
    tel.lock_wait(("mgl", 2), 10.0)
    assert tel.lock_waits[key] == [2, 150.0]
    assert tel.registry.counter("lock_waits_total").value == 3
    assert tel.registry.histogram("lock_wait_ns").count == 3


def test_span_metrics_emitted():
    tel, clock, _ = make_tel()
    with tel.span("metalog.commit"):
        clock.clock_ns += 12
    assert tel.registry.counter("span_calls_total", span="metalog.commit").value == 1
    assert tel.registry.histogram("span_ns", span="metalog.commit").count == 1


@pytest.mark.parametrize("attach_first", [True, False], ids=["attach-then-create", "create-then-attach"])
def test_checkpoint_writeback_is_attributed_whenever_telemetry_attaches(attach_first):
    """``write_back`` is handed the sink at call time, so a handle made
    before ``attach_telemetry`` books its checkpoint like any other — a
    sink cached on the handle's ``ShadowLog`` would record no writeback
    span and book all 5,048 bytes to ``op.checkpoint``."""
    fs = MgspFilesystem(device_size=8 << 20)
    tel = attach_telemetry(fs) if attach_first else None
    handle = fs.create("f", capacity=1 << 20)
    tel = tel or attach_telemetry(fs)
    handle.write(0, b"x" * 5000)
    assert handle.checkpoint() == 5000
    assert tel.spans["checkpoint.writeback"].self_bytes == 5000
    assert tel.spans["op.checkpoint"].self_bytes == 48
    assert tel.registry.counter("checkpoint_bytes_total").value == 5000


def test_null_sink_is_inert():
    assert NULL_SINK.enabled is False
    assert isinstance(NULL_SINK, NullSink)
    assert NULL_SINK.span_begin("anything") is None
    NULL_SINK.span_end(None)  # no-op
    NULL_SINK.lock_wait(("k",), 5.0)  # no-op
    with NULL_SINK.span("anything"):
        pass
    assert NULL_SINK.now() == 0.0


def test_layer_mapping():
    assert layer_of("write.data") == "data"
    assert layer_of("write.log") == "log"
    assert layer_of("write.plan") == "plan"
    assert layer_of("write.metadata") == "metadata"
    assert layer_of("metalog.commit") == "metadata"
    assert layer_of("mgl.acquire") == "lock"
    assert layer_of("checkpoint.writeback") == "checkpoint"
    assert layer_of("flusher.drain") == "checkpoint"
    assert layer_of("op.checkpoint") == "checkpoint"
    assert layer_of("txn.commit") == "txn"
    assert layer_of("op.txn-commit") == "txn"
    assert layer_of("op.read") == "read"
    assert layer_of("op.write") == "syscall"
    assert layer_of("recovery.rollforward") == "recovery"
    assert layer_of("mmio.flush") == "mmio"
    assert layer_of("something.else") == "other"
