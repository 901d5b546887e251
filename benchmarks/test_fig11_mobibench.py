"""Figure 11: SQLite-style Mobibench transactions (WAL and OFF modes).

Paper: in WAL mode MGSP improves insert/update/delete by 18.3/7.9/32.5%
over Ext4-DAX and 25.7/9.2/20.6% over Libnvmmio; in OFF mode by
~30/30/27.6% over Ext4-DAX (which cannot even provide the consistency
OFF mode needs).
"""

from __future__ import annotations

import pytest

from repro.bench.figures import EXPERIMENTS

MODES = ("insert", "update", "delete")


@pytest.mark.parametrize("key", ["fig11-wal", "fig11-off"])
def test_fig11(bench_table, key):
    table = bench_table(EXPERIMENTS[key])
    v = table.value
    for mode in MODES:
        mgsp = v("MGSP", mode)
        # MGSP ahead of Ext4-DAX by a 5-60% margin (paper: 8-33%).
        gain_dax = mgsp / v("Ext4-DAX", mode) - 1
        assert 0.05 <= gain_dax <= 0.60, (key, mode, gain_dax)
        # MGSP ahead of Libnvmmio.
        assert mgsp > v("Libnvmmio", mode)
        # NOVA sits between MGSP and Ext4-DAX.
        assert v("Ext4-DAX", mode) < v("NOVA", mode) <= mgsp * 1.05
