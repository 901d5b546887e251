"""Extension benchmark beyond the paper's evaluation: FS-level
transactions, the paper's §IV-D future work, implemented in
:mod:`repro.core.txn` — a database-like multi-write commit through MGSP
transactions vs the same group as WAL commits.
"""

from __future__ import annotations

import random

from repro.bench.harness import Table
from repro.bench.registry import make_fs
from repro.core import MgspConfig, MgspFilesystem


GROUP = 8  # writes per atomic group
GROUPS = 60


def run_txn_experiment() -> Table:
    """Commit GROUPS groups of GROUP scattered 512-byte writes, each
    group failure-atomic, three ways."""
    table = Table(title="Extension — atomic write groups, virtual us per group")
    rng_offsets = [
        [random.Random(g * 31 + i).randrange(0, (1 << 20) - 4096) for i in range(GROUP)]
        for g in range(GROUPS)
    ]

    def offsets(g):
        return rng_offsets[g]

    # (a) MGSP FS-level transactions (the future-work mechanism).
    fs = MgspFilesystem(device_size=96 << 20, config=MgspConfig(degree=16))
    f = fs.create("data", capacity=2 << 20)
    fs.take_traces()
    for g in range(GROUPS):
        with fs.begin_transaction(f) as txn:
            for off in offsets(g):
                txn.write(off, b"t" * 512)
    elapsed = sum(t.duration_ns(fs.timing.lock_ns) for t in fs.take_traces())
    table.set("MGSP txn", "us/group", elapsed / GROUPS / 1e3)

    # (b) MGSP plain writes (atomic per write, not per group).
    fs = MgspFilesystem(device_size=96 << 20, config=MgspConfig(degree=16))
    f = fs.create("data", capacity=2 << 20)
    fs.take_traces()
    for g in range(GROUPS):
        for off in offsets(g):
            f.write(off, b"t" * 512)
    elapsed = sum(t.duration_ns(fs.timing.lock_ns) for t in fs.take_traces())
    table.set("MGSP per-write", "us/group", elapsed / GROUPS / 1e3)

    # (c) The classic alternative: a WAL on Ext4-DAX (double write).
    from repro.db.wal import WriteAheadLog

    dax = make_fs("Ext4-DAX", device_size=96 << 20)
    data = dax.create("data", capacity=2 << 20)
    wal = WriteAheadLog(dax.create("wal", capacity=8 << 20))
    dax.take_traces()
    for g in range(GROUPS):
        pages = {}
        for off in offsets(g):
            page_no = off // 4096
            pages[page_no] = b"t" * 4096
        wal.commit(pages)
        wal.checkpoint(data)
    elapsed = sum(t.duration_ns(dax.timing.lock_ns) for t in dax.take_traces())
    table.set("Ext4-DAX WAL", "us/group", elapsed / GROUPS / 1e3)
    return table


def test_txn_extension(bench_table):
    table = bench_table(run_txn_experiment)
    v = table.value
    # Group atomicity via MGSP txns costs less than a WAL on Ext4-DAX.
    assert v("MGSP txn", "us/group") < v("Ext4-DAX WAL", "us/group")
    # And not much more than plain per-write atomicity.
    assert v("MGSP txn", "us/group") < 2.0 * v("MGSP per-write", "us/group")
