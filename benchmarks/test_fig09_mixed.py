"""Figure 9: 4 KB mixed read/write, normalized to Ext4-DAX.

Paper: Libnvmmio gains ~50% at a 1:9 write:read mix but falls below
Ext4-DAX once writes reach 50%; NOVA holds +58.7~92.2%; MGSP holds
+113.1~141.3% across ratios.
"""

from __future__ import annotations

from repro.bench.figures import EXPERIMENTS

RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_fig09(bench_table):
    table = bench_table(EXPERIMENTS["fig09"])
    v = table.value

    for ratio in RATIOS:
        col = f"{int(ratio * 100)}%w"
        # MGSP is the clear winner at every mix.
        assert v("MGSP", col) > v("NOVA", col) > 1.0
        assert v("MGSP", col) > 1.6, (col, v("MGSP", col))
    # Libnvmmio: beats DAX when read-dominant, loses once write-heavy.
    assert v("Libnvmmio", "10%w") > 1.0
    assert v("Libnvmmio", "70%w") < 1.0
    assert v("Libnvmmio", "90%w") < 1.0
    # NOVA holds a solid stable band.
    for ratio in RATIOS:
        assert 1.2 <= v("NOVA", f"{int(ratio * 100)}%w") <= 2.6
