"""Unit tests for the multi-tenant service layer (PR 8 tentpole)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.nvm.timing import TimingModel
from repro.obs import MetricsRegistry
from repro.service import (
    DeficitRoundRobin,
    MgspService,
    Request,
    ServiceConfig,
    ShardMap,
    TenantQuota,
    TokenBucket,
    run_service_workload,
)
from repro.service.__main__ import main as service_cli
from repro.sim.engine import ReplayEngine
from repro.sim.trace import OpTrace


# -- sharding ----------------------------------------------------------------


class TestShardMap:
    def test_deterministic_and_stable(self):
        m = ShardMap(4)
        names = [f"t{i:04d}" for i in range(64)]
        first = [m.shard_for(n) for n in names]
        assert first == [m.shard_for(n) for n in names]  # pure function
        assert all(0 <= s < 4 for s in first)

    def test_spreads_tenants(self):
        m = ShardMap(4)
        shards = {m.shard_for(f"t{i:04d}") for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard(self):
        assert ShardMap(1).shard_for("anything") == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardMap(0)


# -- admission ---------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_reject(self):
        bucket = TokenBucket(TenantQuota(ops_per_sec=1.0, burst=3))
        assert all(bucket.admit(0.0) for _ in range(3))
        assert not bucket.admit(0.0)
        assert bucket.admitted == 3 and bucket.rejected == 1

    def test_refills_on_virtual_clock(self):
        # 1 op/s = 1 token per 1e9 virtual ns.
        bucket = TokenBucket(TenantQuota(ops_per_sec=1.0, burst=1))
        assert bucket.admit(0.0)
        assert not bucket.admit(1e8)  # 0.1 tokens
        assert bucket.admit(1.2e9)  # refilled past 1
        assert not bucket.admit(1.2e9)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(TenantQuota(ops_per_sec=1e9, burst=2))
        assert [bucket.admit(1e12) for _ in range(3)] == [True, True, False]

    def test_invalid_quota(self):
        with pytest.raises(ValueError):
            TenantQuota(ops_per_sec=0.0)
        with pytest.raises(ValueError):
            TenantQuota(burst=0)


# -- fair scheduling ---------------------------------------------------------


class TestDeficitRoundRobin:
    def test_fifo_within_tenant(self):
        drr = DeficitRoundRobin(quantum=1 << 20)
        for i in range(4):
            drr.enqueue("a", i, 100)
        assert [item for _, item in drr.drain()] == [0, 1, 2, 3]

    def test_round_robin_across_tenants(self):
        drr = DeficitRoundRobin(quantum=100)
        for i in range(2):
            drr.enqueue("a", f"a{i}", 100)
            drr.enqueue("b", f"b{i}", 100)
        assert list(drr.drain()) == [
            ("a", "a0"), ("b", "b0"), ("a", "a1"), ("b", "b1"),
        ]

    def test_byte_fairness_large_vs_small(self):
        """An elephant (4 KiB requests) cannot starve a mouse (512 B):
        per round the mouse dispatches ~8x more requests, equal bytes."""
        drr = DeficitRoundRobin(quantum=4096)
        for i in range(8):
            drr.enqueue("elephant", ("e", i), 4096)
        for i in range(64):
            drr.enqueue("mouse", ("m", i), 512)
        order = list(drr.drain())
        # After the first elephant dispatch, a full mouse quantum follows
        # before the next elephant one.
        first_e = order.index(("elephant", ("e", 0)))
        second_e = order.index(("elephant", ("e", 1)))
        mice_between = sum(
            1 for t, _ in order[first_e + 1 : second_e] if t == "mouse"
        )
        assert mice_between == 8

    def test_deficit_carries_over_for_oversized_requests(self):
        """A request larger than one quantum waits, banks deficit, and
        dispatches once enough rounds accumulate — it is never dropped."""
        drr = DeficitRoundRobin(quantum=100)
        drr.enqueue("big", "x", 250)
        drr.enqueue("small", "y", 10)
        order = list(drr.drain())
        assert ("big", "x") in order and ("small", "y") in order
        assert order[0] == ("small", "y")  # big waits for round 3

    def test_idle_tenant_banks_no_credit(self):
        drr = DeficitRoundRobin(quantum=100)
        drr.enqueue("a", 1, 100)
        assert list(drr.drain()) == [("a", 1)]
        assert drr._deficit == {}  # no residual credit

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(quantum=0)


# -- engine arrival scheduling (the sim/engine extension) --------------------


def _trace(*segments):
    return OpTrace(name="t", segments=list(segments))


class TestEngineStartTimes:
    def test_arrival_delays_thread(self):
        engine = ReplayEngine(TimingModel(channels=4, lock_ns=0.0))
        streams = [[_trace(("compute", 10.0))], [_trace(("compute", 10.0))]]
        result = engine.run(streams, start_times=[0.0, 1000.0])
        assert result.threads[0].finish_ns == 10.0
        assert result.threads[1].finish_ns == 1010.0
        assert result.makespan_ns == 1010.0

    def test_default_matches_all_zero(self):
        engine = ReplayEngine(TimingModel(channels=1, lock_ns=0.0))
        streams = [
            [_trace(("io", 5.0), ("compute", 3.0))],
            [_trace(("io", 7.0))],
        ]
        base = engine.run(streams)
        explicit = engine.run(streams, start_times=[0.0, 0.0])
        assert [t.finish_ns for t in base.threads] == [
            t.finish_ns for t in explicit.threads
        ]
        assert base.makespan_ns == explicit.makespan_ns

    def test_late_arrival_skips_contention(self):
        """A thread arriving after the channel burst is over sees no
        queueing delay; at t=0 it would have."""
        engine = ReplayEngine(TimingModel(channels=1, lock_ns=0.0))
        streams = [[_trace(("io", 100.0))], [_trace(("io", 10.0))]]
        contended = engine.run(streams)
        staggered = engine.run(streams, start_times=[0.0, 500.0])
        assert contended.threads[1].lock_wait_ns == 100.0
        assert staggered.threads[1].lock_wait_ns == 0.0
        assert staggered.threads[1].finish_ns == 510.0

    def test_empty_stream_finishes_on_arrival(self):
        engine = ReplayEngine(TimingModel(channels=1, lock_ns=0.0))
        result = engine.run([[], [_trace(("compute", 1.0))]], start_times=[50.0, 0.0])
        assert result.threads[0].finish_ns == 50.0

    def test_length_mismatch_raises(self):
        engine = ReplayEngine(TimingModel(channels=1, lock_ns=0.0))
        with pytest.raises(SimulationError):
            engine.run([[_trace(("compute", 1.0))]], start_times=[0.0, 0.0])


# -- end-to-end service ------------------------------------------------------


class TestServiceWorkload:
    def test_small_run_invariants(self):
        registry = MetricsRegistry()
        report = run_service_workload(
            ServiceConfig(shards=2, device_size=16 << 20, file_capacity=8 << 10),
            tenants=8,
            ops_per_tenant=4,
            bs=1024,
            seed=7,
            registry=registry,
        )
        assert report.tenants == 8 and report.shards == 2
        assert report.admitted == 32 and report.rejected == 0
        assert report.total_bytes == 32 * 1024
        assert report.makespan_ns > 0 and report.throughput_mb_s > 0
        assert len(report.per_shard) == 2
        assert sum(s.tenants for s in report.per_shard) == 8
        for shard in report.per_shard:
            assert 0.0 <= shard.utilization <= 1.0
        # Per-tenant reports are complete and consistent.
        assert len(report.per_tenant) == 8
        for tr in report.per_tenant:
            assert tr.admitted == 4 and tr.rejected == 0
            assert tr.bytes_written == 4 * 1024
        # Metrics landed in the shared registry.
        snap = registry.snapshot()
        assert any("service_shard_utilization" in k for k in snap["gauges"])

    def test_tight_quota_rejects(self):
        config = ServiceConfig(
            shards=1,
            device_size=16 << 20,
            file_capacity=8 << 10,
            quota=TenantQuota(ops_per_sec=1.0, burst=2),
        )
        report = run_service_workload(config, tenants=4, ops_per_tenant=8, seed=7)
        assert report.rejected == 4 * 6  # burst=2 of 8 per tenant admitted
        assert report.admitted == 4 * 2
        for tr in report.per_tenant:
            assert tr.admitted == 2 and tr.rejected == 6

    def test_deterministic_reports(self):
        def run():
            r = run_service_workload(
                ServiceConfig(shards=2, device_size=16 << 20, file_capacity=8 << 10),
                tenants=6,
                ops_per_tenant=3,
                seed=11,
            )
            return (
                r.makespan_ns,
                [(t.tenant, t.admitted, t.bytes_written) for t in r.per_tenant],
                [(s.makespan_ns, s.lock_wait_ns) for s in r.per_shard],
            )

        assert run() == run()

    def test_tenants_land_on_hashed_shard(self):
        service = MgspService(ServiceConfig(shards=4, device_size=16 << 20))
        m = ShardMap(4)
        for i in range(8):
            name = f"t{i:04d}"
            session = service.register(name)
            assert session.shard == m.shard_for(name)
            # The backing file exists only on that shard.
            for shard, fs in enumerate(service.shards):
                assert fs.volume.exists(name) == (shard == session.shard)

    def test_duplicate_and_oversized_tenant_rejected(self):
        service = MgspService(ServiceConfig(shards=1, device_size=16 << 20))
        service.register("dup")
        with pytest.raises(ValueError):
            service.register("dup")
        with pytest.raises(ValueError):
            service.register("x" * 17)

    def test_submit_counts_shard_rejects(self):
        service = MgspService(
            ServiceConfig(
                shards=1,
                device_size=16 << 20,
                quota=TenantQuota(ops_per_sec=1.0, burst=1),
            )
        )
        service.register("t0000")
        req = Request(kind="write", offset=0, nbytes=512, arrival_ns=0.0)
        assert service.submit("t0000", req)
        assert not service.submit("t0000", req)
        counter = service.registry.counter(
            "service_admission_rejects_total", shard="0"
        )
        assert counter.value == 1


# -- CLI ---------------------------------------------------------------------


class TestCli:
    def test_single_run(self, capsys):
        assert service_cli(["--tenants", "4", "--shards", "2", "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 tenants x 2 shard(s)" in out
        assert "admitted" in out

    def test_sweep_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        rc = service_cli(
            [
                "--sweep",
                "--tenant-counts", "4,8",
                "--shard-counts", "1,2",
                "--ops", "2",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        import json

        payload = json.loads(out_path.read_text())
        assert payload["benchmark"] == "service-scalability"
        assert len(payload["rows"]) == 4
