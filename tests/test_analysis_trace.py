"""Trace analyzer: per-rule units, event-index parity, fault injection."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    RULES,
    RegionMap,
    TraceAnalyzer,
    attach_analyzer,
    program_context,
    run_workload,
)
from repro.core import MgspConfig, MgspFilesystem
from repro.crashsweep.workloads import get_workload
from repro.nvm.crash import count_events
from repro.nvm.timing import TimingModel
from repro.obs.flight import FlightRecorder, attach_flight
from repro.sim.trace import TraceRecorder


def rules_of(findings):
    return [f.rule for f in findings]


def make_fs(**cfg):
    return MgspFilesystem(device_size=8 << 20, config=MgspConfig(degree=16, **cfg))


# -- RegionMap -------------------------------------------------------------


def test_region_map_classifies_all_regions():
    ctx = program_context()
    layout = ctx.regions.layout
    for name in RegionMap.NAMES:
        span = getattr(layout, name)
        assert ctx.regions.classify(span.start) == name
        assert ctx.regions.classify(span.end - 1) == name
    assert ctx.regions.classify(layout.data_area.end) == "unmapped"


# -- commit-before-data ----------------------------------------------------


def test_commit_before_data_missing_data_fence():
    ctx = program_context()
    d = ctx.device
    d.nt_store(ctx.data_off, b"d" * 512)
    # MISSING: d.fence() — the data fence that must precede the commit
    d.nt_store(ctx.metalog_off, b"c" * 64)
    d.fence()
    assert rules_of(ctx.analyzer.errors) == ["commit-before-data"]
    (f,) = ctx.analyzer.errors
    assert f.severity == "error"
    # fence is the 3rd event (two stores before it)
    assert f.event_index == 2


def test_commit_before_data_dirty_guarded_line():
    ctx = program_context()
    d = ctx.device
    d.store(ctx.data_off, b"d" * 64)  # dirty, never flushed
    d.nt_store(ctx.metalog_off, b"c" * 64)
    d.fence()
    assert "commit-before-data" in rules_of(ctx.analyzer.errors)


def test_commit_before_data_clean_when_fenced():
    ctx = program_context()
    d = ctx.device
    d.nt_store(ctx.data_off, b"d" * 512)
    d.fence()  # data durable before the commit point
    d.nt_store(ctx.metalog_off, b"c" * 64)
    d.fence()
    assert ctx.analyzer.findings == []


def test_commit_word_store_is_not_a_commit_entry():
    # 8-byte metalog stores (valid-bit / retire pokes) are not commit
    # entries; fencing them with pending data around is legal.
    ctx = program_context()
    d = ctx.device
    d.nt_store(ctx.data_off, b"d" * 64)
    d.atomic_store_u64(ctx.metalog_off, 1)
    d.persist(ctx.metalog_off, 8)
    assert rules_of(ctx.analyzer.errors) == []


# -- torn-multiword --------------------------------------------------------


def test_torn_multiword_plain_store_in_node_tables():
    ctx = program_context()
    ctx.device.store(ctx.node_tables_off, b"x" * 16)
    assert rules_of(ctx.analyzer.errors) == ["torn-multiword"]


def test_torn_multiword_metalog_also_covered():
    ctx = program_context()
    ctx.device.store(ctx.metalog_off, b"x" * 64)
    assert "torn-multiword" in rules_of(ctx.analyzer.errors)


def test_torn_multiword_not_fired_for_nt_or_word_stores():
    ctx = program_context()
    d = ctx.device
    d.nt_store(ctx.node_tables_off, b"x" * 16)  # nt: fine
    d.atomic_store_u64(ctx.node_tables_off + 64, 7)  # single word: fine
    d.store(ctx.data_off, b"x" * 4096)  # data region: fine
    d.persist(ctx.data_off, 4096)
    assert rules_of(ctx.analyzer.errors) == []


# -- unfenced-at-boundary --------------------------------------------------


def test_unfenced_at_boundary_dirty_line_escapes_op():
    ctx = program_context()
    with ctx.op("write"):
        ctx.device.store(ctx.data_off, b"x" * 128)
    assert rules_of(ctx.analyzer.errors) == ["unfenced-at-boundary"]
    (f,) = ctx.analyzer.errors
    assert f.op == "write"


def test_unfenced_at_boundary_reported_once_per_line():
    ctx = program_context()
    with ctx.op("write"):
        ctx.device.store(ctx.data_off, b"x" * 64)
    with ctx.op("fsync"):
        pass  # same dirty line still alive: not re-reported
    assert rules_of(ctx.analyzer.errors) == ["unfenced-at-boundary"]


def test_unfenced_at_boundary_metalog_exempt():
    # MGSP's retire leaves one dirty metalog line per op, by design.
    ctx = program_context()
    with ctx.op("write"):
        ctx.device.store(ctx.metalog_off + 8, b"\0" * 8)
    assert rules_of(ctx.analyzer.errors) == []


def test_unfenced_at_boundary_quiet_under_async_writeback():
    ctx = program_context()
    ctx.analyzer.async_writeback = True
    with ctx.op("write"):
        ctx.device.store(ctx.data_off, b"x" * 64)
    assert rules_of(ctx.analyzer.errors) == []


# -- perf rules ------------------------------------------------------------


def test_redundant_flush_on_clean_line():
    ctx = program_context()
    d = ctx.device
    d.store(ctx.data_off, b"y" * 64)
    d.persist(ctx.data_off, 64)
    d.flush(ctx.data_off, 64)
    assert rules_of(ctx.analyzer.findings) == ["redundant-flush"]
    assert ctx.analyzer.errors == []  # perf severity


def test_redundant_fence_with_nothing_pending():
    ctx = program_context()
    d = ctx.device
    d.store(ctx.data_off, b"z" * 64)
    d.persist(ctx.data_off, 64)
    d.fence()
    assert rules_of(ctx.analyzer.findings) == ["redundant-fence"]


def test_perf_rules_suppressed_when_perf_off():
    ctx = program_context()
    ctx.analyzer.perf = False
    ctx.device.fence()
    assert ctx.analyzer.findings == []


# -- event indexing, budget, drain ----------------------------------------


def test_event_indices_match_crash_sweep_enumeration():
    ctx = program_context()
    d = ctx.device
    base = d.stats.snapshot()
    d.store(ctx.data_off, b"a" * 130)  # 1 store event
    d.persist(ctx.data_off, 130)  # 1 flush call + 1 fence
    d.store_v(((ctx.data_off, b"b" * 64), (ctx.data_off + 64, b"c" * 64)))  # 2
    d.flush_v(((ctx.data_off, 64), (ctx.data_off + 64, 64)))  # 2
    d.fence()  # 1
    assert ctx.analyzer.event_index == count_events(d, since=base) == 8


def test_budget_saturation_stops_analysis():
    ctx = program_context()
    ctx.analyzer.max_events = 2
    d = ctx.device
    d.store(ctx.data_off, b"x" * 64)
    d.store(ctx.node_tables_off, b"x" * 16)  # idx 1: still analyzed
    d.store(ctx.node_tables_off + 64, b"x" * 16)  # past budget: ignored
    assert ctx.analyzer.saturated
    assert rules_of(ctx.analyzer.errors) == ["torn-multiword"]
    # events keep counting for parity even while saturated
    assert ctx.analyzer.event_index == 3


def test_drain_resets_counter_and_state():
    ctx = program_context()
    d = ctx.device
    d.store(ctx.data_off, b"x" * 64)
    d.drain()
    assert ctx.analyzer.event_index == 0
    d.store(ctx.data_off, b"y" * 64)
    d.persist(ctx.data_off, 64)
    assert ctx.analyzer.findings == []


# -- the recorder's listener seam -------------------------------------------


def test_recorder_listeners_told_after_the_recorder_in_attach_order():
    """The seam's contract: listeners hear an event once the recorder has
    handled it, in attach order, through whichever hooks they have."""
    rec = TraceRecorder(TimingModel())
    bare = TraceRecorder(TimingModel())
    heard = []

    class OpsAndLocks:
        def __init__(self, tag):
            self.tag = tag

        def on_op_begin(self, name):
            heard.append((self.tag, "begin", name, rec.current.name))

        def on_op_end(self, name):
            # the trace is already completed, and no op is open any more
            heard.append((self.tag, "end", name, rec.completed[-1].name, rec.current))

        def on_lock(self, key, mode):
            heard.append((self.tag, "lock", rec.current.segments[-1]))

        def on_unlock(self, key):
            heard.append((self.tag, "unlock", rec.current.segments[-1]))

    class OpsOnly:  # no on_lock / on_unlock: simply not called for locks
        def on_op_begin(self, name):
            heard.append(("ops", "begin", name))

        def on_op_end(self, name):
            heard.append(("ops", "end", name))

    first, ops, last = OpsAndLocks("first"), OpsOnly(), OpsAndLocks("last")
    for listener in (first, ops, last):
        assert rec.attach(listener) is listener
    assert rec.listeners == [first, ops, last]

    for r in (rec, bare):
        r.begin_op("write")
        r.compute(10.0)
        r.lock(("k", 1), "W")
        r.io_write(64)
        r.io_flush(1)
        r.io_fence()
        r.unlock(("k", 1))
    trace = rec.end_op()
    assert heard == [
        ("first", "begin", "write", "write"), ("ops", "begin", "write"),
        ("last", "begin", "write", "write"),
        ("first", "lock", ("lock", ("k", 1), "W")), ("last", "lock", ("lock", ("k", 1), "W")),
        ("first", "unlock", ("unlock", ("k", 1))), ("last", "unlock", ("unlock", ("k", 1))),
        ("first", "end", "write", "write", None), ("ops", "end", "write"),
        ("last", "end", "write", "write", None),
    ]
    # listening changes nothing the recorder records or prices
    assert trace.name == "write"
    assert trace.segments == bare.end_op().segments
    assert rec.clock_ns == bare.clock_ns
    assert rec.take_completed() == [trace]


def test_attach_analyzer_wraps_live_mount():
    fs = make_fs()
    recorder = fs.recorder
    analyzer = attach_analyzer(fs, perf=False)
    # the analyzer taps nothing itself: it follows the one flight recorder
    # that joined both seams, and the cost recorder is still never replaced
    (flight,) = [obs for obs in fs.device.observers if isinstance(obs, FlightRecorder)]
    assert flight._folds == (analyzer,)
    assert flight in fs.recorder.listeners
    assert analyzer not in fs.device.observers and analyzer not in fs.recorder.listeners
    assert not any(hasattr(analyzer, hook) for hook in ("on_store", "on_fence", "on_op_end"))
    assert fs.recorder is recorder and fs.mgl.recorder is recorder
    f = fs.create("a", capacity=1 << 16)
    f.write(0, b"hello" * 100)
    f.fsync()
    f.close()
    assert analyzer.errors == []


# -- fault injection: the acceptance scenario ------------------------------


def drop_first_fence(device):
    """Patch ``device.fence`` so the next call is silently dropped."""
    real_fence = device.fence
    state = {"dropped": False}

    def fence():
        if not state["dropped"]:
            state["dropped"] = True
            return
        real_fence()

    device.fence = fence
    return state


def test_dropped_data_fence_caught_as_commit_before_data():
    """Remove the step-4 data fence from the MGSP commit path: the
    metalog commit fence then covers still-volatile data, and the
    analyzer must flag it as commit-before-data."""
    fs = make_fs()
    analyzer = attach_analyzer(fs, perf=False)
    f = fs.create("a", capacity=1 << 16)
    fs.device.drain()  # settle setup traffic; reset indices
    state = drop_first_fence(fs.device)
    f.write(0, b"a" * 4096)
    assert state["dropped"], "injection never reached a fence"
    assert "commit-before-data" in rules_of(analyzer.errors)


def test_same_write_clean_without_injection():
    fs = make_fs()
    analyzer = attach_analyzer(fs, perf=False)
    f = fs.create("a", capacity=1 << 16)
    fs.device.drain()
    f.write(0, b"a" * 4096)
    assert analyzer.errors == []


# -- workload harness ------------------------------------------------------


def test_run_workload_reports_parity_and_clean_errors():
    report = run_workload("fio", "mgsp-sync", perf=True)
    assert report.parity_ok
    assert report.errors == []
    assert report.events > 0
    text = report.format()
    assert "workload=fio-randwrite" in text


def test_run_workload_budget_flags_saturation():
    report = run_workload("fio", "mgsp-sync", perf=True, max_events=10)
    assert report.saturated
    assert "budget" in report.format()


def test_report_reproducer_names_crashsweep_at_index():
    report = run_workload("txn", "mgsp-sync", perf=True)
    from repro.analysis.analyzer import Finding

    fake = Finding(rule="commit-before-data", severity="error", event_index=42, message="x")
    line = report.reproducer(fake)
    assert "--at 42" in line and "repro.crashsweep" in line
    assert "--workload txn-mixed" in line


# -- live == saved -----------------------------------------------------------


@pytest.mark.parametrize("workload, config, nfindings", [
    ("fio-randwrite", "async", 7), ("txn-mixed", "sync", None), ("ycsb-a", "sync", None)])
def test_analyzer_over_a_saved_ring_equals_the_live_analyzer(workload, config, nfindings):
    """The analyzer is a fold: called on each entry of a whole-run ring
    as a bundle stores it (JSON lists), it reports what the analyzer
    that followed the live recorder reported, at the same indices."""
    outcome = get_workload(workload).run(
        config, instrument=lambda fs: (attach_analyzer(fs), attach_flight(fs, capacity=0)))
    live, full = outcome.attached
    assert full.dropped == 0
    saved = TraceAnalyzer(live.regions, async_writeback=live.async_writeback)
    for entry in json.loads(json.dumps(full.snapshot()))["events"]:
        saved(entry)
    assert saved.findings == live.findings
    assert saved.event_index == live.event_index == count_events(
        outcome.fs.device, since=outcome.stats_base)
    if nfindings is not None:  # the equality is not vacuous
        assert len(live.findings) == nfindings
