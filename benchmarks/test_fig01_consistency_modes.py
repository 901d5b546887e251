"""Figure 1: 4 KB write performance under consistency/sync requirements.

Paper: Ext4 wb/ordered/journal are fast without sync (page cache) but
collapse with per-op fsync; Ext4-DAX drops when synced; Libnvmmio is
fast unsynced but collapses with sync; MGSP keeps its performance since
every operation is already synchronized and atomic.
"""

from __future__ import annotations

from repro.bench.figures import EXPERIMENTS

SYSTEMS = ("Ext4-wb", "Ext4-ordered", "Ext4-journal", "Ext4-DAX", "Libnvmmio", "MGSP")


def test_fig01(bench_table):
    table = bench_table(EXPERIMENTS["fig01"])

    def v(row, col):
        return table.value(row, col)

    # Page-cache Ext4 is fast unsynced, collapses with sync.
    for mode in ("Ext4-wb", "Ext4-ordered", "Ext4-journal"):
        assert v(mode, "no-sync") > 3 * v(mode, "sync")
    # Libnvmmio collapses under per-op sync.
    assert v("Libnvmmio", "no-sync") > 3 * v("Libnvmmio", "sync")
    # Ext4-DAX drops when synced.
    assert v("Ext4-DAX", "no-sync") > 1.5 * v("Ext4-DAX", "sync")
    # MGSP barely moves (each op is already a synchronized atomic op).
    assert v("MGSP", "sync") > 0.75 * v("MGSP", "no-sync")
    # With sync, MGSP beats everything.
    for name in SYSTEMS[:-1]:
        assert v("MGSP", "sync") > v(name, "sync")
