"""Fig-10-style service scalability sweep.

Sweeps tenant counts across shard counts and reports virtual-time
throughput, admission rejects, lock wait and shard utilization per
cell. The export is a pure function of the seed — no
wall-clock timestamps anywhere — so two runs with the same seed must
produce byte-identical JSON (the CI determinism gate re-runs one cell
and compares bytes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.provenance import provenance
from repro.service.service import ServiceConfig, run_service_workload

DEFAULT_TENANTS: Sequence[int] = (16, 64, 256, 1000)
DEFAULT_SHARDS: Sequence[int] = (1, 2, 4)


@dataclass
class SweepSpec:
    tenant_counts: Sequence[int] = DEFAULT_TENANTS
    shard_counts: Sequence[int] = DEFAULT_SHARDS
    ops_per_tenant: int = 4
    bs: int = 1024
    seed: int = 42
    device_size: int = 64 << 20
    file_capacity: int = 16 << 10
    mean_gap_ns: float = 2_000.0


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: List[dict] = field(default_factory=list)

    def to_json(self) -> str:
        """Deterministic export: stable key order, no timestamps."""
        payload = {
            "benchmark": "service-scalability",
            "figure": "fig10-service",
            "config": {
                "tenant_counts": list(self.spec.tenant_counts),
                "shard_counts": list(self.spec.shard_counts),
                "ops_per_tenant": self.spec.ops_per_tenant,
                "bs": self.spec.bs,
                "seed": self.spec.seed,
                "device_size": self.spec.device_size,
                "file_capacity": self.spec.file_capacity,
                "mean_gap_ns": self.spec.mean_gap_ns,
            },
            "rows": self.rows,
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"


#: files one 64 MiB shard can hold: the node-table area (5% of the
#: device) divided by the 4 KiB per-file table alignment, with slack.
_FILES_PER_64MB = 800


def run_cell(spec: SweepSpec, tenants: int, shards: int) -> dict:
    """One sweep cell -> a flat JSON-ready row.

    The shard device grows with tenant density: each tenant needs one
    inode slot plus an aligned node table, so dense cells (1000 tenants
    on one shard) get a proportionally larger simulated DIMM.
    """
    per_shard = -(-tenants // shards)
    scale = max(1, -(-per_shard // _FILES_PER_64MB))
    config = ServiceConfig(
        shards=shards,
        device_size=spec.device_size * scale,
        file_capacity=spec.file_capacity,
    )
    report, service = run_service_workload(
        config,
        tenants=tenants,
        ops_per_tenant=spec.ops_per_tenant,
        bs=spec.bs,
        seed=spec.seed,
        mean_gap_ns=spec.mean_gap_ns,
        return_service=True,
    )
    stamp = provenance(
        seed=spec.seed,
        config={
            "tenants": tenants,
            "shards": shards,
            "device_size": spec.device_size * scale,
            "file_capacity": spec.file_capacity,
            "ops_per_tenant": spec.ops_per_tenant,
            "bs": spec.bs,
            "mean_gap_ns": spec.mean_gap_ns,
        },
        telemetries=[fs.obs for fs in service.shards],
    )
    return {
        "provenance": stamp,
        "tenants": tenants,
        "shards": shards,
        "makespan_ns": report.makespan_ns,
        "throughput_mb_s": round(report.throughput_mb_s, 6),
        "admitted": report.admitted,
        "rejected": report.rejected,
        "total_bytes": report.total_bytes,
        "shard_utilization": [round(s.utilization, 6) for s in report.per_shard],
        "lock_wait_ns": sum(s.lock_wait_ns for s in report.per_shard),
    }


def run_sweep(spec: SweepSpec) -> SweepResult:
    result = SweepResult(spec=spec)
    for shards in spec.shard_counts:
        for tenants in spec.tenant_counts:
            result.rows.append(run_cell(spec, tenants, shards))
    return result
