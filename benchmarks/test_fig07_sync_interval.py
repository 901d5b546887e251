"""Figure 7: 4 KB sequential write vs fsync frequency.

Paper: Libnvmmio's throughput drops sharply even at one fsync per 100
writes (checkpoint double-write); Ext4-DAX drops when every op is
synced; MGSP is essentially flat across sync intervals.

Extension (beyond the paper): an MGSP-async row runs the same sweep
with asynchronous write-back epochs enabled, draining logs every 256 KB
on a daemon flusher thread — log usage stays bounded online at a small
throughput cost (the drains contend for NVM channels).
"""

from __future__ import annotations

from repro.bench.figures import ASYNC_CONFIG, EXPERIMENTS, FSIZE
from repro.workloads.fio import FioJob

NOPS = 300  # fig07's default


def test_fig07(bench_table):
    table = bench_table(EXPERIMENTS["fig07"])
    v = table.value

    # MGSP nearly flat: <= ~25% spread between fsync-1 and no-sync.
    assert v("MGSP", "fsync-1") > 0.75 * v("MGSP", "no-sync")
    # Libnvmmio still far below its unsynced speed at fsync-100.
    assert v("Libnvmmio", "fsync-100") < 0.6 * v("Libnvmmio", "no-sync")
    # Ext4-DAX recovers most of its speed once syncs are rare.
    assert v("Ext4-DAX", "fsync-100") > 0.8 * v("Ext4-DAX", "no-sync")
    # NOVA only pays the fsync syscall itself (data is durable per op).
    assert v("NOVA", "fsync-1") > 0.65 * v("NOVA", "no-sync")
    # At per-op sync, MGSP wins.
    for name in ("Ext4-DAX", "Libnvmmio"):
        assert v("MGSP", "fsync-1") > 2 * v(name, "fsync-1")
    # Async epochs keep most of the synchronous throughput and stay flat.
    for label in table.columns:
        assert v("MGSP-async", label) > 0.5 * v("MGSP", label)
    assert v("MGSP-async", "fsync-1") > 0.7 * v("MGSP-async", "no-sync")


def test_fig07_async_epochs_drain():
    """The async flusher actually runs: epoch drains happen on the
    background stream and the write amplification reflects the copies."""
    from repro.bench.registry import device_size_for, make_fs
    from repro.workloads.fio import run_fio

    fs = make_fs("MGSP", device_size=device_size_for(FSIZE), mgsp_config=ASYNC_CONFIG)
    job = FioJob(op="write", bs=4096, fsize=FSIZE, fsync=1, nops=NOPS)
    result = run_fio(fs, job)
    expected = (NOPS * 4096) // (256 << 10)
    assert fs.flusher is not None
    assert fs.flusher.epochs >= max(1, expected - 1)
    assert fs.flusher.bytes_drained > 0
    assert result.throughput_mb_s > 0
