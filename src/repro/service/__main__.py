"""CLI: run the multi-tenant service or the scalability sweep.

Examples::

    python -m repro.service --tenants 64 --shards 2 --ops 8
    python -m repro.service --sweep --out BENCH_service.json
    python -m repro.service --sweep --tenant-counts 16,64 --shard-counts 1,2
"""

from __future__ import annotations

import argparse
import sys

from repro.service.admission import TenantQuota
from repro.service.harness import SweepSpec, run_sweep
from repro.service.service import ServiceConfig, run_service_workload


def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Multi-tenant MGSP service: single run or Fig-10-style sweep.",
    )
    parser.add_argument("--tenants", type=int, default=16)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--ops", type=int, default=8, help="operations per tenant")
    parser.add_argument("--bs", type=int, default=1024, help="request size in bytes")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--device-size", type=int, default=64 << 20)
    parser.add_argument("--quota-ops", type=float, default=200_000.0,
                        help="per-tenant admitted ops/sec on the virtual clock")
    parser.add_argument("--burst", type=int, default=64, help="token-bucket burst")
    parser.add_argument("--sweep", action="store_true",
                        help="run the scalability sweep instead of one workload")
    parser.add_argument("--tenant-counts", type=_int_list, default=None)
    parser.add_argument("--shard-counts", type=_int_list, default=None)
    parser.add_argument("--out", default=None, help="write sweep JSON here")
    parser.add_argument("--perfetto", metavar="FILE", default=None,
                        help="single-run mode: export per-tenant replay "
                        "lanes as Chrome trace-event JSON (Perfetto)")
    parser.add_argument("--bundle-dir", metavar="DIR", default=None,
                        help="write a black-box bundle per tenant error")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="run bare shards (no span/byte telemetry)")
    args = parser.parse_args(argv)

    if args.sweep:
        spec = SweepSpec(seed=args.seed, device_size=args.device_size,
                         ops_per_tenant=args.ops, bs=args.bs)
        if args.tenant_counts:
            spec.tenant_counts = args.tenant_counts
        if args.shard_counts:
            spec.shard_counts = args.shard_counts
        result = run_sweep(spec)
        text = result.to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out} ({len(result.rows)} rows)")
        print(f"{'tenants':>8} {'shards':>7} {'MB/s':>10} {'rejects':>8}")
        for row in result.rows:
            print(f"{row['tenants']:8d} {row['shards']:7d} "
                  f"{row['throughput_mb_s']:10.1f} {row['rejected']:8d}")
        return 0

    config = ServiceConfig(
        shards=args.shards,
        device_size=args.device_size,
        quota=TenantQuota(ops_per_sec=args.quota_ops, burst=args.burst),
        telemetry=not args.no_telemetry,
        record_timeline=args.perfetto is not None,
        bundle_dir=args.bundle_dir,
    )
    report, service = run_service_workload(
        config, tenants=args.tenants, ops_per_tenant=args.ops,
        bs=args.bs, seed=args.seed, return_service=True,
    )
    if args.perfetto:
        from repro.obs import perfetto

        doc = perfetto.from_timelines(
            service.timelines, lane_names=service.lane_names
        )
        perfetto.validate(doc)
        with open(args.perfetto, "w", encoding="utf-8") as fh:
            fh.write(perfetto.render(doc))
        print(f"wrote {args.perfetto} "
              f"({sum(len(t) for t in service.timelines)} segments)")
    print(f"service: {report.tenants} tenants x {report.shards} shard(s)")
    print(f"  makespan    {report.makespan_ns / 1e6:10.3f} ms (virtual)")
    print(f"  throughput  {report.throughput_mb_s:10.1f} MB/s")
    print(f"  admission   {report.admitted} admitted, {report.rejected} rejected")
    for shard in report.per_shard:
        print(f"  shard {shard.shard}: {shard.tenants:4d} tenants  "
              f"util {shard.utilization * 100:5.1f}%  "
              f"lock-wait {shard.lock_wait_ns / 1e6:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
