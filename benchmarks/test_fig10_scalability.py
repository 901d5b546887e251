"""Figure 10: multi-threaded writes to one shared file.

Paper: Ext4-DAX and NOVA show limited scalability; Libnvmmio barely
scales (foreground/background conflict + epoch serialization); MGSP
scales best at 1K/4K via MGL and saturates on hardware at 16K, where
all systems converge.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import EXPERIMENTS, fig10

THREADS = (1, 2, 4, 8, 16)


@pytest.mark.parametrize(
    "run", [EXPERIMENTS["fig10-1k"], lambda: fig10("randwrite", 1024)], ids=["write", "randwrite"]
)
def test_fig10_fine_grained_1k(bench_table, run):
    table = bench_table(run)
    v = table.value
    # MGSP scales: 16 threads at least 3.5x its single thread.
    assert v("MGSP", "t16") > 3.5 * v("MGSP", "t1")
    # Ext4-DAX flattens (jbd2 serialization).
    assert v("Ext4-DAX", "t16") < 2.5 * v("Ext4-DAX", "t2")
    # Libnvmmio barely moves with threads.
    assert v("Libnvmmio", "t16") < 1.8 * v("Libnvmmio", "t1")
    # Paper band: MGSP/DAX between ~3.8x and ~8.5x somewhere in the sweep.
    ratio_range = [v("MGSP", f"t{t}") / v("Ext4-DAX", f"t{t}") for t in THREADS]
    assert max(ratio_range) >= 3.8
    assert min(ratio_range) >= 2.5
    # vs NOVA: 1.89~6.16x band (loose).
    nova_ratios = [v("MGSP", f"t{t}") / v("NOVA", f"t{t}") for t in THREADS]
    assert 1.4 <= min(nova_ratios) and max(nova_ratios) <= 7.0


@pytest.mark.parametrize(
    "run", [EXPERIMENTS["fig10-4k"], lambda: fig10("randwrite", 4096)], ids=["write", "randwrite"]
)
def test_fig10_4k(bench_table, run):
    table = bench_table(run)
    v = table.value
    ratios = [v("MGSP", f"t{t}") / v("Ext4-DAX", f"t{t}") for t in THREADS]
    # Paper: 2.56-3.76x (seq) / 2.13-3.51x (rand) across the sweep.
    assert 1.9 <= min(ratios) and max(ratios) <= 4.2, ratios


def test_fig10_16k_converges(bench_table):
    table = bench_table(EXPERIMENTS["fig10-16k"])
    v = table.value
    # Coarse-grained writes: hardware-limited; MGSP ~ Ext4-DAX ~ NOVA.
    for t in (8, 16):
        assert 0.8 <= v("MGSP", f"t{t}") / v("Ext4-DAX", f"t{t}") <= 1.6
        assert 0.8 <= v("MGSP", f"t{t}") / v("NOVA", f"t{t}") <= 1.6
