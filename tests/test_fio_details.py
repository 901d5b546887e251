"""FIO runner details: latency stats, determinism, prefill, mst stats."""

from __future__ import annotations

import pytest

from repro.bench.registry import make_fs
from repro.workloads.fio import FioJob, FioResult, run_fio


def run(fs_name="MGSP", **job_kw):
    defaults = dict(op="write", bs=4096, fsize=4 << 20, fsync=1, nops=60)
    defaults.update(job_kw)
    return run_fio(make_fs(fs_name, device_size=64 << 20), FioJob(**defaults))


class TestLatency:
    def test_percentiles_ordered(self):
        result = run(op="randwrite", nops=100)
        p50 = result.latency_percentile(50)
        p95 = result.latency_percentile(95)
        p99 = result.latency_percentile(99)
        assert 0 < p50 <= p95 <= p99
        assert result.mean_latency_ns > 0

    def test_latency_count_matches_ops(self):
        result = run(nops=40)
        assert len(result.latencies_ns) == result.ops

    def test_empty_percentile(self):
        empty = FioResult(
            job=FioJob(), fs_name="x", elapsed_ns=0, total_bytes=0, ops=0,
            write_amplification=0,
        )
        assert empty.latency_percentile(99) == 0.0
        assert empty.mean_latency_ns == 0.0

    def test_write_latency_includes_fsync(self):
        synced = run(fsync=1, nops=50)
        unsynced = run(fsync=0, nops=50)
        assert synced.latency_percentile(50) > unsynced.latency_percentile(50)

    def test_mixed_workload_is_bimodal(self):
        """Reads cost less than synchronized writes, so a mixed job's
        tail (writes) sits clearly above its median region."""
        result = run(op="randrw", write_ratio=0.3, nops=150)
        assert result.latency_percentile(95) > 1.5 * result.latency_percentile(25)


class TestDeterminism:
    def test_same_job_same_numbers(self):
        a = run(op="randrw", write_ratio=0.5, nops=80)
        b = run(op="randrw", write_ratio=0.5, nops=80)
        assert a.elapsed_ns == b.elapsed_ns
        assert a.write_amplification == b.write_amplification
        assert a.latencies_ns == b.latencies_ns

    def test_seed_changes_offsets(self):
        a = run(op="randwrite", seed=1, nops=80)
        b = run(op="randwrite", seed=2, nops=80)
        # Same totals, different paths: latencies differ somewhere.
        assert a.total_bytes == b.total_bytes


class TestPrefill:
    @pytest.mark.parametrize("fs_name", ["Ext4-DAX", "NOVA", "Libnvmmio", "MGSP"])
    def test_reads_return_prefilled_pattern(self, fs_name):
        fs = make_fs(fs_name, device_size=64 << 20)
        job = FioJob(op="read", bs=4096, fsize=2 << 20, nops=10)
        result = run_fio(fs, job)
        assert result.total_bytes == 10 * 4096
        inode = fs.volume.lookup("fio.dat")
        assert inode.size == job.fsize
        if inode.base:  # extent-backed: check the pattern on media
            assert fs.device.buffer.load(inode.base, 8) == bytes(range(8))

    def test_prefill_skippable(self):
        fs = make_fs("MGSP", device_size=64 << 20)
        job = FioJob(op="write", bs=4096, fsize=2 << 20, nops=10, prefill=False)
        result = run_fio(fs, job)
        assert result.ops == 10

    def test_prefill_costs_excluded(self):
        with_pf = run(prefill=True, nops=30)
        without = run(prefill=False, nops=30)
        # Prefill must not inflate the measured window.
        assert with_pf.elapsed_ns == pytest.approx(without.elapsed_ns, rel=0.25)


class TestMstReporting:
    def test_sequential_high_hit_rate(self):
        result = run(op="write", bs=1024, nops=100)
        assert result.mst_hit_rate > 0.8

    def test_random_lower_hit_rate(self):
        seq = run(op="write", bs=1024, nops=100)
        rnd = run(op="randwrite", bs=1024, nops=100)
        assert rnd.mst_hit_rate < seq.mst_hit_rate

    def test_non_mgsp_reports_zero(self):
        result = run(fs_name="Ext4-DAX")
        assert result.mst_hit_rate == 0.0
