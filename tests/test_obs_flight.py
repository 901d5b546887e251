"""Flight recorder: determinism gate, ring semantics, attach order.

The load-bearing property is **non-perturbation**: attaching the
recorder (and telemetry) to a workload must leave crash images,
``DeviceStats``, and sweep verdicts byte-identical to a bare run —
the flight recorder is always-on-capable precisely because turning it
on changes nothing observable.
"""

from __future__ import annotations

import pytest

from repro.core import MgspConfig, MgspFilesystem
from repro.crashsweep.workloads import get_workload
from repro.fs import Ext4Dax, Nova
from repro.nvm.crash import CrashPlan, count_events
from repro.nvm.device import NvmDevice
from repro.obs.flight import FlightRecorder, attach_flight
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Telemetry, attach_telemetry


def _run(workload_name, config, crash_after=None, flight_capacity=None):
    workload = get_workload(workload_name)

    def instrument(system):
        attach_telemetry(system, registry=MetricsRegistry())
        return attach_flight(system, capacity=flight_capacity)

    plan = CrashPlan(crash_after) if crash_after is not None else None
    outcome = workload.run(
        config, plan, instrument=instrument if flight_capacity is not None else None
    )
    return outcome, outcome.attached


class _CountingTap:
    def __init__(self):
        self.calls = []

    def on_store(self, offset, length, kind):
        self.calls.append(("store", offset, length, kind))

    def on_flush(self, offset, length, nlines):
        self.calls.append(("flush", offset, length, nlines))

    def on_fence(self):
        self.calls.append(("fence",))

    def on_drain(self):
        self.calls.append(("drain",))


def test_tap_fanout_add_remove():
    """Two taps on the observer list see the same stream, in attach
    order; a detached one sees nothing further."""
    device = NvmDevice(1 << 20)
    a, b = _CountingTap(), _CountingTap()
    device.attach(a)
    device.attach(b)
    assert device.observers == [a, b]
    device.store(0, b"\xaa" * 8)
    assert a.calls and a.calls == b.calls
    device.detach(b)
    assert device.observers == [a]
    device.fence()
    assert a.calls[-1] == ("fence",) and ("fence",) not in b.calls
    device.detach(a)
    device.detach(a)  # not attached: a no-op
    assert device.observers == []
    device.fence()
    assert a.calls[-1] == ("fence",) and a.calls.count(("fence",)) == 1


def test_flight_attach_is_non_perturbing():
    """Images, stats, and verdicts identical with and without the recorder."""
    bare, _ = _run("fio-randwrite", "sync", crash_after=700)
    wired, flight = _run("fio-randwrite", "sync", crash_after=700, flight_capacity=128)
    assert flight.recorded > 0
    assert vars(bare.fs.device.stats) == vars(wired.fs.device.stats)
    kept = sorted(bare.fs.device.unfenced_words())
    assert kept == sorted(wired.fs.device.unfenced_words())
    assert bytes(bare.fs.device.crash_image(persist_words=kept)) == bytes(
        wired.fs.device.crash_image(persist_words=kept)
    )
    assert bare.crashed and wired.crashed


def test_event_index_parity_with_crashsweep():
    """Ring indices are crash indices: the recorder counts exactly the
    events the sweep enumerates (census baseline = post-setup drain)."""
    outcome, flight = _run("fio-randwrite", "sync", flight_capacity=64)
    assert flight.event_index == count_events(
        outcome.fs.device, since=outcome.stats_base
    )
    # the bounded ring keeps the tail; indices in it are replayable --at Ns
    tail = [e for e in flight.events_list() if e[0] in ("store", "flush", "fence")]
    indices = [e[1] for e in tail if e[0] in ("store", "flush")]
    assert indices == sorted(indices)
    assert indices[-1] < flight.event_index


def test_bounded_ring_drops_head():
    flight = FlightRecorder(capacity=4)
    for i in range(10):
        flight.mark(f"m{i}")
    snap = flight.snapshot()
    assert snap["capacity"] == 4
    assert len(snap["events"]) == 4
    assert snap["recorded"] == 10
    assert snap["dropped"] == 6
    assert snap["events"][-1][2] == "m9"


def test_unbounded_ring_keeps_everything():
    flight = FlightRecorder(capacity=0)
    for i in range(100):
        flight.mark(str(i))
    assert flight.dropped == 0
    assert len(flight.events_list()) == 100


def test_held_locks_and_span_stack():
    flight = FlightRecorder(capacity=0)
    flight.on_lock("inode:3", "X")
    flight.on_span_open("op.write", 0.0, ("op.write",))
    flight.on_store(4096, 64, "store")
    assert flight.held_locks_snapshot() == [["inode:3", "X"]]
    store = [e for e in flight.events_list() if e[0] == "store"][0]
    assert store[7] == ("op.write",)  # open spans ride on the event
    flight.on_unlock("inode:3")
    assert flight.held_locks_snapshot() == []


@pytest.mark.parametrize("make_fs", [
    lambda: MgspFilesystem(device_size=8 << 20, config=MgspConfig()),
    lambda: MgspFilesystem(device_size=8 << 20, config=MgspConfig(greedy_locking=False)),
    lambda: Nova(device_size=8 << 20),
    lambda: Ext4Dax(device_size=8 << 20),
], ids=["mgsp", "mgsp-no-greedy", "nova", "ext4dax"])
def test_ring_holds_every_lock_segment_of_the_traces(make_fs):
    """The ring sees the lock traffic the traces price — MGSP's MGL
    locks included, which reach the recorder through ``fs.mgl`` and not
    through ``fs.recorder``."""
    fs = make_fs()
    attach_telemetry(fs, registry=MetricsRegistry())
    flight = attach_flight(fs, capacity=0)
    handle = fs.create("f", capacity=1 << 20)
    handle.write(0, b"a" * 4096)
    handle.write(8192, b"b" * 100)
    handle.fsync()
    assert handle.read(0, 4096) == b"a" * 4096
    if isinstance(fs, MgspFilesystem):
        txn = fs.begin_transaction(handle)
        txn.write(0, b"c" * 512)
        txn.write(65536, b"d" * 512)
        txn.commit()
        fs.end_thread(0)
    segments = [seg[0] for trace in fs.take_traces() for seg in trace.segments]
    ring = flight.events_list()
    kinds = [entry[0] for entry in ring]
    assert kinds.count("lock") == segments.count("lock") > 0
    assert kinds.count("unlock") == segments.count("unlock") > 0
    assert flight.held_locks_snapshot() == []
    # and a plain write is seen taking its lock inside its own op bracket
    begin, end = (next(i for i, e in enumerate(ring) if e[0] == kind and e[2] == "write")
                  for kind in ("op-begin", "op-end"))
    assert "lock" in kinds[begin:end]


def test_drain_resets_ring_and_index():
    flight = FlightRecorder(capacity=8)
    flight.on_store(0, 8, "store")
    flight.on_fence()
    assert flight.event_index > 0
    flight.on_drain()
    assert flight.event_index == 0
    assert flight.events_list() == []


def _linked_telemetry():
    tel = Telemetry(registry=MetricsRegistry())
    tel.flight = FlightRecorder(capacity=0)
    return tel, tel.flight


def test_span_close_heals_through_abandoned_spans():
    """Telemetry.span_end pops through frames an exception unwound past,
    and the recorder's next device event carries the healed path; a
    frame already healed away closes nothing."""
    tel, flight = _linked_telemetry()
    outer, log, _ = (tel.span_begin(name) for name in ("op.write", "write.log", "mgl.acquire"))
    tel.span_end(log)  # mgl.acquire was abandoned
    flight.on_fence()
    assert flight.events_list()[-1][-1] == ("op.write",)
    tel.span_end(outer)
    tel.span_end(log)
    flight.on_fence()
    assert flight.events_list()[-1][-1] == ()
    assert [e[2] for e in flight.events_list() if e[0] == "span-close"] == ["write.log", "op.write"]


def test_heal_with_a_repeated_span_name():
    """Closing an outer span heals through an inner span of the same
    name: the stamp follows the frames, not the names."""
    tel, flight = _linked_telemetry()
    outer = tel.span_begin("op.write")
    tel.span_begin("write.log")
    tel.span_begin("op.write")
    tel.span_end(outer)
    flight.on_fence()
    assert flight.events_list()[-1][-1] == ()


def _attach_unbounded_flight(system):
    return attach_flight(system, capacity=0)


@pytest.mark.parametrize("config", ["sync", "async"])
def test_either_attach_order_gives_the_same_ring(config):
    """attach_flight before attach_telemetry used to leave
    Telemetry.flight unset: no span events in the ring and an empty
    ``spans`` tuple on every device event."""
    seen = {}
    for flight_first in (False, True):
        attached = []
        order = (_attach_unbounded_flight, attach_telemetry)[::1 if flight_first else -1]

        def instrument(system):
            attached.extend(attach(system) for attach in order)

        get_workload("txn-mixed").run(config, instrument=instrument)
        flight, telemetry = sorted(attached, key=lambda obj: isinstance(obj, FlightRecorder),
                                   reverse=True)
        events = flight.events_list()
        assert sum(e[0] == "span-open" for e in events) == sum(
            stats.count for stats in telemetry.spans.values()) > 0
        assert any(e[0] == "store" and e[-1] for e in events)  # spans ride on device events
        seen[flight_first] = (flight.snapshot(), telemetry.registry.snapshot())
    assert seen[True] == seen[False]


@pytest.mark.parametrize("config", ["sync", "async"])
def test_snapshot_deterministic(config):
    _, one = _run("txn-mixed", config, flight_capacity=64)
    _, two = _run("txn-mixed", config, flight_capacity=64)
    assert one.snapshot() == two.snapshot()


def test_followers_hear_the_whole_stream_whatever_the_ring_keeps():
    """``follow``: a fold hears each entry as it is recorded, plus the
    never-stored drain marker — after it, exactly the unbounded ring."""
    unbounded = None
    for capacity in (0, 8):
        first, second = [], []

        def instrument(system):
            attach_telemetry(system, registry=MetricsRegistry())
            flight = attach_flight(system, capacity=capacity)
            hear = first.append
            assert flight.follow(hear) is hear
            flight.follow(second.append)
            return flight

        flight = get_workload("txn-mixed").run("async", instrument=instrument).attached
        ring = flight.events_list()
        if capacity == 0:
            unbounded = ring
        assert first == second
        assert first.count(("drain",)) == 1 and ("drain",) not in ring
        heard = first[first.index(("drain",)) + 1:]
        assert heard == unbounded and len(heard) > 2000
        if capacity:
            assert ring == heard[-8:] and flight.dropped == len(heard) - 8
        else:
            assert flight.dropped == 0
