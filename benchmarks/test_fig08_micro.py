"""Figure 8: sequential/random read/write across block sizes.

Paper bands (MGSP vs baselines, per-op fsync):

- seq write fine (<4K):  vs DAX 3.31-4.21x, vs Lib 3.43-4.53x, vs NOVA 1.69-2.06x
- seq write coarse (>=4K): vs DAX 1.1-2.52x, vs Lib 3.23-4.3x, vs NOVA 1.01-1.43x
- rand write fine:  vs DAX 2.52-2.97x, vs Lib 2.56-3.16x
- rand write coarse: vs DAX 1.11-2.33x, vs Lib 2.72-3.46x
- seq read: vs DAX 1.89-3.07x fine / 1.26-1.33x coarse
- rand read: vs DAX 1.88-2.19x fine / 1.28-1.71x coarse

The harness asserts orderings and loose bands (see EXPERIMENTS.md for
measured-vs-paper detail and documented deviations).
"""

from __future__ import annotations

import pytest

from repro.bench.figures import EXPERIMENTS
from repro.bench.harness import Table
from repro.util import fmt_size

FINE = (512, 1024, 2048)
COARSE = (4096, 16384, 65536)


def ratios(table: Table, base: str):
    return {
        col: table.value("MGSP", col) / table.value(base, col) for col in table.columns
    }


@pytest.mark.parametrize("key", ["fig08-write", "fig08-randwrite"])
def test_fig08_writes(bench_table, key):
    table = bench_table(EXPERIMENTS[key])
    vs_dax = ratios(table, "Ext4-DAX")
    vs_lib = ratios(table, "Libnvmmio")
    vs_nova = ratios(table, "NOVA")

    for bs in FINE:
        col = fmt_size(bs)
        assert 2.4 <= vs_dax[col] <= 4.8, (key, col, vs_dax[col])
        assert 2.8 <= vs_lib[col] <= 5.2, (key, col, vs_lib[col])
        assert 1.3 <= vs_nova[col] <= 2.6, (key, col, vs_nova[col])
    for bs in COARSE:
        col = fmt_size(bs)
        assert 0.85 <= vs_dax[col] <= 3.2, (key, col, vs_dax[col])
        assert 2.6 <= vs_lib[col] <= 5.0, (key, col, vs_lib[col])
        assert 0.85 <= vs_nova[col] <= 1.6, (key, col, vs_nova[col])
    # Fine-grained advantage shrinks as block size grows (write-amp story).
    assert vs_dax[fmt_size(512)] > vs_dax[fmt_size(16384)] > vs_dax[fmt_size(65536)]


@pytest.mark.parametrize("key", ["fig08-read", "fig08-randread"])
def test_fig08_reads(bench_table, key):
    table = bench_table(EXPERIMENTS[key])
    vs_dax = ratios(table, "Ext4-DAX")
    vs_lib = ratios(table, "Libnvmmio")

    for bs in FINE:
        col = fmt_size(bs)
        assert 1.6 <= vs_dax[col] <= 3.2, (key, col, vs_dax[col])
        assert 0.9 <= vs_lib[col] <= 1.3, (key, col, vs_lib[col])
    for bs in COARSE:
        col = fmt_size(bs)
        assert 1.0 <= vs_dax[col] <= 2.0, (key, col, vs_dax[col])
    # Reads gain less than writes: MGSP is not designed for reads.
    assert vs_dax[fmt_size(1024)] < 3.5
