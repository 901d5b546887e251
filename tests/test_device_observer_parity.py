"""The one observer seam: every ``_v`` entry point x every observer set.

A batch goes through the buffer's bulk call and then notifies each
observer per element; ``device_oracle`` is the loop of single-op calls it
must be indistinguishable from. For each entry point and each observer
set — cost recorder alone, recorder + telemetry + flight recorder, the
trace analyzer and the inference event fold over a flight recorder's
entries, a counting crash plan, a
capture visiting points inside the batch beside a counting plan and a
crash plan that must hand the batch back, a
plan armed at *every* index of a five-element batch, a bad element
mid-batch — both devices must end with identical working and durable
images, ``DeviceStats``, ``OpTrace.segments`` and virtual clock, and every
observer must have seen the identical event stream with identical
indices.
"""

from __future__ import annotations

import pytest

import device_oracle
from repro.analysis.analyzer import RegionMap, TraceAnalyzer
from repro.crashsweep.workloads import RawSystem
from repro.errors import CrashRequested, OutOfRangeError, TornWriteError
from repro.infer.events import from_flight
from repro.nvm.crash import CrashPlan, EventCounter, counting_plan
from repro.obs import attach_flight, attach_telemetry

SIZE = 4 << 20
BASE = 1 << 20

#: five elements each; a clean range, a line-crossing write and two
#: words of one cache line are in there on purpose
BATCHES = {
    "store_v": [(BASE, b"a" * 64), (BASE + 100, b"b" * 30), (BASE + 4096, b"c" * 200),
                (BASE + 8192, b"d" * 8), (BASE + 8200, b"e" * 1)],
    "nt_store_v": [(BASE, b"a" * 96), (BASE + 60, b"b" * 8), (BASE + 4096, b"c" * 4096),
                   (BASE + 16384, b"d" * 1), (BASE + 20000, b"e" * 130)],
    "store_word_v": [(BASE, 7), (BASE + 8, 9), (BASE + 4096, 11), (BASE + 64, 13), (BASE, 15)],
    "flush_v": [(BASE, 64), (BASE + 512, 32), (BASE + 1024, 200), (BASE + 65536, 64),
                (BASE + 1024, 8)],
}
#: events a batch of five emits (a word store is a store and a clwb)
EVENTS = {"store_v": 5, "nt_store_v": 5, "store_word_v": 10, "flush_v": 5}
EVENTS_MAX = max(EVENTS.values())
BAD_ELEMENT = {
    "store_v": ((SIZE - 4, b"x" * 16), OutOfRangeError),
    "nt_store_v": ((SIZE - 4, b"x" * 16), OutOfRangeError),
    "store_word_v": ((BASE + 3, 1), TornWriteError),
}


def _make_system() -> RawSystem:
    """A bare device priced by its recorder, with dirty and pending
    state for the batch to land on. Observers attach after this, so
    their event index 0 is the batch's first event."""
    system = RawSystem(SIZE)
    system.device.attach(system.recorder)
    system.device.store(BASE, b"s" * 300)
    system.device.store(BASE + 1024, b"t" * 200)
    system.device.nt_store(BASE + 4096, b"u" * 64)
    return system


def _attach_analyzer(system):
    analyzer = TraceAnalyzer(RegionMap.for_device(SIZE), device=system.device)
    return attach_flight(system).follow(analyzer)


#: observer set name -> attaches it to a system, returns {label: observer}
OBSERVER_SETS = {
    "recorder": lambda system: {},
    "recorder+telemetry+flight": lambda system: {
        "telemetry": attach_telemetry(system),
        "flight": attach_flight(system, capacity=0),
    },
    "analyzer": lambda system: {"analyzer": _attach_analyzer(system)},
    "collector": lambda system: {"collector": attach_flight(system, capacity=0)},
    "counting-plan": lambda system: {"plan": system.device.attach(counting_plan())},
    "store-only-plan": lambda system: {
        "plan": system.device.attach(counting_plan(kinds={"store"})),
        "flight": attach_flight(system, capacity=0),
    },
    "capture": lambda system: _attach_capture(system),
}


def _attach_capture(system):
    """A counting plan and a crash plan past the batch admit it first; a
    capture with points inside the batch then refuses it, so both hand
    their share back and every element is offered one at a time."""
    device = system.device
    visits = []

    def visit(kind):
        visits.append((capture.count - 1, kind, bytes(device.buffer.working),
                       device.unfenced_words()))

    counter = device.attach(counting_plan())
    armed = device.attach(CrashPlan(EVENTS_MAX + 2))
    capture = device.attach(EventCounter((0, 2, 3, EVENTS_MAX), visit))
    capture.visits = visits
    return {"plan": counter, "armed": armed, "capture": capture}


def _observed(system, observers, raised) -> dict:
    """Everything an observer (or a later reader of the device) can see."""
    device = system.device
    seen = {
        "raised": type(raised).__name__ if raised else None,
        "working": bytes(device.buffer.working),
        "durable": bytes(device.buffer.durable),
        "stats": vars(device.stats).copy(),
        "unfenced": device.unfenced_words(),
        "traces": [(trace.name, trace.segments) for trace in system.recorder.take_completed()],
        "clock_ns": system.recorder.clock_ns,
    }
    for label, observer in observers.items():
        if label == "telemetry":
            seen[label] = (observer.registry.snapshot(), observer.total_ns(),
                           observer.total_bytes())
        elif label == "flight":
            seen[label] = (observer.snapshot(), observer.event_index)
        elif label == "analyzer":
            seen[label] = (observer.findings, observer.event_index)
        elif label == "collector":
            events = from_flight(observer.events_list(), RegionMap.for_device(SIZE))
            assert [event.index for event in events] == list(range(observer.event_index))
            seen[label] = (events, observer.event_index)
        elif label == "capture":
            seen[label] = (observer.count, observer.visits)
        else:
            seen[label] = (observer.count, getattr(observer, "fired", None),
                           getattr(observer, "fired_kind", None))
    return seen


def _run(entry: str, items, attach, batched: bool):
    system = _make_system()
    observers = attach(system)
    telemetry = observers.get("telemetry")
    raised = None
    try:
        with system.op("batch"):
            frame = telemetry.span_begin("write.batch") if telemetry else None
            device_oracle.apply(system.device, entry, items, batched)
            system.device.fence()
            if telemetry:
                telemetry.span_end(frame)
    except (CrashRequested, OutOfRangeError, TornWriteError) as exc:
        raised = exc
    return _observed(system, observers, raised), observers


def _assert_parity(entry: str, items, attach):
    batched, observers = _run(entry, items, attach, batched=True)
    reference, _ = _run(entry, items, attach, batched=False)
    for key in reference:
        assert batched[key] == reference[key], key
    return batched, observers


@pytest.mark.parametrize("observer_set", OBSERVER_SETS)
@pytest.mark.parametrize("entry", BATCHES)
def test_batch_is_indistinguishable_from_the_loop(entry, observer_set):
    seen, observers = _assert_parity(entry, BATCHES[entry], OBSERVER_SETS[observer_set])
    assert seen["raised"] is None
    if "flight" in observers:  # the batch, then the fence
        flight = observers["flight"]
        assert flight.event_index == EVENTS[entry] + 1
        if "telemetry" in observers:
            assert all(e[-1] == ("write.batch",) for e in flight.events_list()
                       if e[0] in ("store", "flush", "fence"))
    if observer_set == "counting-plan":
        assert observers["plan"].count == EVENTS[entry] + 1
    if observer_set == "capture":
        events = EVENTS[entry] + 1
        assert observers["plan"].count == observers["armed"].count == events
        assert not observers["armed"].fired
        visited = [index for index, *_ in observers["capture"].visits]
        assert visited == [p for p in (0, 2, 3, EVENTS_MAX) if p < events]


@pytest.mark.parametrize("entry", BATCHES)
def test_crash_plan_armed_at_every_index_of_the_batch(entry):
    """Crash points 0..n-1 are inside the batch, n is the trailing
    fence, n+1 never fires."""
    for crash_at in range(EVENTS[entry] + 2):

        def attach(system, crash_at=crash_at):
            return {
                "flight": attach_flight(system, capacity=0),
                "plan": system.device.attach(CrashPlan(crash_at)),
            }

        seen, observers = _assert_parity(entry, BATCHES[entry], attach)
        fired = crash_at <= EVENTS[entry]
        assert (seen["raised"] == "CrashRequested") == fired
        assert observers["plan"].fired == fired
        if fired:
            # the ring's next device index is the crash index: events
            # 0..crash_at-1 were applied and recorded, crash_at was not
            flight = observers["flight"]
            assert flight.event_index == crash_at
            device_events = [e for e in flight.events_list() if e[0] in ("store", "flush", "fence")]
            assert [e[1] for e in device_events] == list(range(crash_at))


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("entry", BAD_ELEMENT)
def test_bad_element_mid_batch(entry, position):
    """The batch validates before it mutates, hands the crash plans
    their events back and replays per element: same prefix applied, same
    counters, same exception, same stream for every observer."""
    bad, exc = BAD_ELEMENT[entry]
    items = list(BATCHES[entry])
    items[position] = bad

    def attach(system):
        return {
            "telemetry": attach_telemetry(system),
            "flight": attach_flight(system, capacity=0),
            "plan": system.device.attach(counting_plan()),
        }

    seen, observers = _assert_parity(entry, items, attach)
    assert seen["raised"] == exc.__name__
    per_element = EVENTS[entry] // 5
    # the bad store itself is a counted crash point (plans are asked
    # before an event is applied); nothing after it is
    assert observers["plan"].count == position * per_element + 1


def test_two_plans_share_a_batch():
    """A batch the second plan must stop inside is handed back by the
    first, so both count it once."""
    system = _make_system()
    device = system.device
    counter = device.attach(counting_plan())
    armed = device.attach(CrashPlan(7))
    device.store_word_v(BATCHES["store_word_v"][:3])  # 6 events: both consume whole
    assert (counter.count, armed.count) == (6, 6)
    with pytest.raises(CrashRequested):
        device.store_word_v(BATCHES["store_word_v"][3:])  # event 7 is inside
    assert armed.fired and armed.fired_kind == "flush"
    assert counter.count == 8  # events 6 and 7 were offered to the counter, once each
