"""Replay engine: virtual locks, channels, contention, deadlock."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.nvm.timing import TimingModel
from repro.sim.engine import ReplayEngine
from repro.sim.locks import COMPATIBLE, LockMode, LockTable, VirtualLock, compatible
from repro.sim.trace import OpTrace


def timing(channels=4, lock_ns=0.0):
    return TimingModel(channels=channels, lock_ns=lock_ns)


def trace(*segments):
    return OpTrace(name="t", segments=list(segments))


class TestLockCompatibility:
    def test_table_i_of_the_paper(self):
        # Rows: requested; columns: held.
        expect = {
            ("IR", "IR"): True, ("IR", "IW"): True, ("IR", "R"): True, ("IR", "W"): False,
            ("IW", "IR"): True, ("IW", "IW"): True, ("IW", "R"): False, ("IW", "W"): False,
            ("R", "IR"): True, ("R", "IW"): False, ("R", "R"): True, ("R", "W"): False,
            ("W", "IR"): False, ("W", "IW"): False, ("W", "R"): False, ("W", "W"): False,
        }
        for (req, held), ok in expect.items():
            assert compatible(req, held) is ok, (req, held)

    def test_symmetry_where_expected(self):
        # The MGL table is symmetric.
        for a in LockMode.ALL:
            for b in LockMode.ALL:
                assert compatible(a, b) == compatible(b, a)

    def test_self_reentrancy(self):
        lock = VirtualLock("k")
        lock.grant(1, LockMode.W)
        assert lock.can_grant(1, LockMode.W)  # same thread
        assert not lock.can_grant(2, LockMode.W)

    def test_release_most_recent_grant(self):
        lock = VirtualLock("k")
        lock.grant(1, LockMode.IW)
        lock.grant(1, LockMode.W)
        lock.release(1)
        assert lock.holders == [(1, LockMode.IW)]

    def test_release_unheld_raises(self):
        lock = VirtualLock("k")
        with pytest.raises(KeyError):
            lock.release(1)

    def test_fifo_waiters(self):
        lock = VirtualLock("k")
        lock.grant(0, LockMode.W)
        lock.waiters.append((1, LockMode.R))
        lock.waiters.append((2, LockMode.R))
        lock.release(0)
        granted = lock.grantable_waiters()
        assert [tid for tid, _ in granted] == [1, 2]

    def test_waiter_prefix_stops_at_conflict(self):
        lock = VirtualLock("k")
        lock.waiters.append((1, LockMode.R))
        lock.waiters.append((2, LockMode.W))
        lock.waiters.append((3, LockMode.R))
        granted = lock.grantable_waiters()
        assert [tid for tid, _ in granted] == [1]  # W blocks; 3 must wait

    def test_lock_table_creates_on_demand(self):
        table = LockTable()
        a = table.get("x")
        assert table.get("x") is a
        assert len(table) == 1


class TestReplayBasics:
    def test_single_thread_sums_segments(self):
        engine = ReplayEngine(timing())
        result = engine.run([[trace(("compute", 100.0), ("io", 50.0))]])
        assert result.makespan_ns == 150.0

    def test_independent_threads_run_in_parallel(self):
        engine = ReplayEngine(timing())
        traces = [[trace(("compute", 1000.0))] for _ in range(4)]
        result = engine.run(traces)
        assert result.makespan_ns == 1000.0

    def test_exclusive_lock_serializes(self):
        engine = ReplayEngine(timing())
        per_thread = [
            [trace(("lock", "k", "W"), ("compute", 1000.0), ("unlock", "k"))]
            for _ in range(3)
        ]
        result = engine.run(per_thread)
        assert result.makespan_ns >= 3000.0

    def test_read_locks_do_not_serialize(self):
        engine = ReplayEngine(timing())
        per_thread = [
            [trace(("lock", "k", "R"), ("compute", 1000.0), ("unlock", "k"))]
            for _ in range(3)
        ]
        result = engine.run(per_thread)
        assert result.makespan_ns < 1500.0

    def test_intention_locks_compatible(self):
        engine = ReplayEngine(timing())
        per_thread = [
            [trace(("lock", "k", "IW"), ("compute", 1000.0), ("unlock", "k"))]
            for _ in range(4)
        ]
        result = engine.run(per_thread)
        assert result.makespan_ns < 1500.0

    def test_w_blocks_behind_iw(self):
        engine = ReplayEngine(timing())
        holder = [trace(("lock", "k", "IW"), ("compute", 500.0), ("unlock", "k"))]
        writer = [trace(("lock", "k", "W"), ("compute", 100.0), ("unlock", "k"))]
        result = engine.run([holder, writer])
        assert result.makespan_ns >= 600.0
        assert result.threads[1].blocked_acquires == 1

    def test_channels_limit_io_parallelism(self):
        engine = ReplayEngine(timing(channels=1))
        per_thread = [[trace(("io", 1000.0))] for _ in range(4)]
        result = engine.run(per_thread)
        assert result.makespan_ns == 4000.0

    def test_many_channels_allow_io_parallelism(self):
        engine = ReplayEngine(timing(channels=8))
        per_thread = [[trace(("io", 1000.0))] for _ in range(4)]
        result = engine.run(per_thread)
        assert result.makespan_ns == 1000.0

    def test_channel_occupancy_exceeds_visible_latency(self):
        # With occupancy 4x visible, one channel saturates at 1/occupancy.
        engine = ReplayEngine(timing(channels=1))
        per_thread = [[trace(("io", 100.0, 400.0)) for _ in range(4)]]
        result = engine.run(per_thread)
        # Thread sees 100ns per io, but the channel frees every 400ns.
        assert result.makespan_ns >= 3 * 400.0 + 100.0

    def test_deadlock_detected(self):
        engine = ReplayEngine(timing())
        # Thread 0 takes A then B; thread 1 takes B then A; no unlocks in
        # between -> classic deadlock.
        t0 = [trace(("lock", "A", "W"), ("compute", 10.0), ("lock", "B", "W"))]
        t1 = [trace(("lock", "B", "W"), ("compute", 10.0), ("lock", "A", "W"))]
        with pytest.raises(SimulationError):
            engine.run([t0, t1])

    def test_lock_wait_accounted(self):
        engine = ReplayEngine(timing())
        t0 = [trace(("lock", "k", "W"), ("compute", 1000.0), ("unlock", "k"))]
        t1 = [trace(("lock", "k", "W"), ("compute", 10.0), ("unlock", "k"))]
        result = engine.run([t0, t1])
        assert result.total_lock_wait_ns >= 900.0

    def test_throughput_helper(self):
        engine = ReplayEngine(timing())
        result = engine.run([[trace(("compute", 1e9))]])  # one second
        assert result.throughput_bytes_per_sec(1 << 20) == pytest.approx(1 << 20)

    def test_empty_run(self):
        engine = ReplayEngine(timing())
        assert engine.run([]).makespan_ns == 0.0
        assert engine.run([[], []]).makespan_ns == 0.0


class TestBatchedReplayDifferential:
    """Keeping a timeline changes no result: ``record_timeline=True``
    replays the measured schedule (one pop per compute run) and only
    adds the entries, on real recorded workloads."""

    def _compare(self, streams, background=0, lock_ns=0.0, channels=4):
        engine = ReplayEngine(timing(channels=channels, lock_ns=lock_ns))
        batched = engine.run(streams, background=background)
        reference = engine.run(streams, background=background, record_timeline=True)
        assert batched.makespan_ns == reference.makespan_ns
        assert batched.threads == reference.threads
        assert batched.total_lock_wait_ns == reference.total_lock_wait_ns

    def test_fio_multithread_traces(self, monkeypatch):
        from repro.bench.registry import make_fs
        from repro.sim import engine as engine_mod
        from repro.workloads.fio import FioJob, run_fio

        captured = []
        orig_run = engine_mod.ReplayEngine.run

        def capture(self, streams, record_timeline=False, background=0):
            captured.append((list(streams), background))
            return orig_run(self, streams, record_timeline, background)

        monkeypatch.setattr(engine_mod.ReplayEngine, "run", capture)
        run_fio(
            make_fs("MGSP", device_size=64 << 20),
            FioJob(op="randwrite", bs=4096, fsize=4 << 20, threads=4, nops=120),
        )
        monkeypatch.undo()  # _compare must hit the real run()
        assert captured, "multithread fio run never hit the replay engine"
        for streams, background in list(captured):
            self._compare(streams, background=background, lock_ns=80.0)

    def test_lock_heavy_synthetic_traces(self):
        # Interleaved compute runs around contended lock acquisitions.
        streams = []
        for t in range(3):
            segs = []
            for i in range(40):
                segs.append(("compute", 10.0 + t))
                segs.append(("compute", 0.5 * i))
                segs.append(("lock", "K", "W"))
                segs.append(("compute", 3.0))
                segs.append(("unlock", "K"))
                segs.append(("io", 100.0, 140.0))
            streams.append([OpTrace(name=f"t{t}", segments=segs)])
        self._compare(streams, lock_ns=50.0, channels=2)

    def test_batching_disabled_when_recording_timeline(self):
        # The name is pinned, not true: there is no batched handler. The
        # one compute branch consumes a run in one pop either way and
        # emits the per-segment entries itself.
        segs = [("compute", 5.0), ("compute", 7.0), ("io", 10.0)]
        streams = [[OpTrace(name="t", segments=segs)]]
        engine = ReplayEngine(timing())
        result = engine.run(streams, record_timeline=True)
        # One timeline entry per original compute segment.
        computes = [ev for ev in result.timeline if ev[3] == "compute"]
        assert len(computes) == 2

    def test_compute_run_arithmetic_is_sequential(self):
        # Float additions must replay in original order: (t+a)+b, not
        # t+(a+b). Values chosen so the two groupings differ in ulps.
        vals = [0.1, 0.2, 0.3, 1e-9, 7.7]
        streams = [[OpTrace(name="t", segments=[("compute", v) for v in vals])]]
        engine = ReplayEngine(timing())
        batched = engine.run(streams)
        reference = engine.run(streams, record_timeline=True)
        assert batched.makespan_ns == reference.makespan_ns
        assert batched.threads[0].compute_ns == reference.threads[0].compute_ns
        t = 0.0
        for v in vals:
            t += v
        assert batched.makespan_ns == t
        assert batched.threads[0].compute_ns == t

    def test_compute_run_across_ops_ends_the_stream(self):
        # Op a's trailing computes and op b's leading ones are one run,
        # and no non-compute segment follows it: the run ends the stream.
        head = [("io", 10.0), ("compute", 0.1), ("compute", 0.2)]
        tail = [("compute", 0.3), ("compute", 1e-9), ("compute", 7.7)]
        streams = [
            [OpTrace(name="a", segments=head), OpTrace(name="b", segments=tail)],
            [OpTrace(name="c", segments=[("compute", 1.0), ("io", 5.0)])],
        ]
        self._compare(streams, channels=1)
        engine = ReplayEngine(timing(channels=1))
        batched = engine.run(streams)
        reference = engine.run(streams, record_timeline=True)
        finish, compute = 10.0, 0.0  # the io, then the one compute run
        for _kind, ns in head[1:] + tail:
            finish += ns
            compute += ns
        for result in (batched, reference):
            assert result.threads[0].compute_ns == compute
            assert result.threads[0].finish_ns == finish
            assert result.threads[0].ops == 2
            assert result.makespan_ns == max(finish, result.threads[1].finish_ns)
        assert len([ev for ev in reference.timeline if ev[0] == 0 and ev[3] == "compute"]) == 5

    @pytest.mark.parametrize("seed, nops", [(2, 6000), (4, 2000), (5, 2000)])
    def test_timeline_is_the_measured_schedule(self, seed, nops):
        """Streams long enough for threads to tie at equal virtual time:
        the tie-break is the heap's push counter, so a timeline run that
        pushed per compute segment drew another schedule (seed 2:
        makespan 2,371,598.08 ns measured, 2,364,339.08 ns drawn)."""
        from repro.bench.registry import make_fs

        fs = make_fs("MGSP", device_size=64 << 20)
        handle = fs.create("f", capacity=16 << 20)
        fs.take_traces()
        rng = random.Random(seed)
        reads = [j < nops // 2 for j in range(nops)]
        rng.shuffle(reads)
        streams = [[] for _ in range(4)]
        for j, read in enumerate(reads):
            fs.current_thread = j % 4
            off = rng.randrange(16384) * 1024
            if read:
                handle.read(off, 1024)
            else:
                handle.write(off, b"\xab" * 1024)
                handle.fsync()
            streams[j % 4].extend(fs.take_traces())
        for t in range(4):
            fs.end_thread(t)
            streams[t].extend(fs.take_traces())

        engine = ReplayEngine(fs.timing)
        measured = engine.run(streams)
        drawn = engine.run(streams, record_timeline=True)
        assert drawn.makespan_ns == measured.makespan_ns
        assert drawn.threads == measured.threads
        for tid, stats in enumerate(drawn.threads):
            compute = sum(
                end - start
                for who, start, end, kind in drawn.timeline
                if who == tid and kind == "compute"
            )
            assert compute == pytest.approx(stats.compute_ns)
