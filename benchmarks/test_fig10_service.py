"""Fig-10-style service scalability: tenants x shards.

The multi-tenant front-end's analogue of the paper's thread-scaling
figure: instead of threads against one file, the axis is tenant count
multiplexed over 1/2/4 MGSP shards. Expectations mirror Fig 10's
shape — per-shard throughput saturates with tenant count, and adding
shards scales the aggregate because shards are independent devices
(namespaces are hash-partitioned, so no cross-shard coupling exists).

Writes ``BENCH_service.json`` (the committed copy is the reference;
the CI ``service`` job regenerates it and uploads the artifact). The
export is seed-deterministic: a second run must be byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service.harness import SweepSpec, run_cell, run_sweep

EXPORT_PATH = Path(__file__).parent.parent / "BENCH_service.json"

#: the CLI default the committed BENCH_service.json was produced with
SPEC = SweepSpec(ops_per_tenant=8)


def test_fig10_service_scalability(bench_table):
    result = bench_table(lambda: run_sweep(SPEC))
    rows = {(r["tenants"], r["shards"]): r for r in result.rows}

    def mbs(tenants, shards):
        return rows[(tenants, shards)]["throughput_mb_s"]

    # Shard scaling at saturation (1000 tenants): 4 shards beat 1 shard
    # by at least 2.5x; 2 shards beat 1 by at least 1.5x.
    assert mbs(1000, 4) > 2.5 * mbs(1000, 1)
    assert mbs(1000, 2) > 1.5 * mbs(1000, 1)
    # Per-shard saturation: going 256 -> 1000 tenants moves aggregate
    # throughput by < 25% at any shard count (the Fig-10 plateau).
    for shards in (1, 2, 4):
        assert abs(mbs(1000, shards) - mbs(256, shards)) < 0.25 * mbs(256, shards)
    # Everything admitted made it through.
    for row in result.rows:
        assert row["admitted"] == row["tenants"] * SPEC.ops_per_tenant
        assert all(0.0 <= u <= 1.0 for u in row["shard_utilization"])

    EXPORT_PATH.write_text(result.to_json())


def test_service_export_deterministic():
    """Two seeded runs of one cell produce byte-identical JSON rows."""
    first = json.dumps(run_cell(SPEC, 64, 2), sort_keys=True)
    second = json.dumps(run_cell(SPEC, 64, 2), sort_keys=True)
    assert first == second
