"""Metric and workload names: the one table BENCHMARK.json is built from.

Every later issue states its claim with these names. ``manifest()`` is
the builder-contract document; the full run rewrites ``BENCHMARK.json``
from it and the smoke test checks the committed file against it, so the
names printed by a run and the names the driver reads cannot drift.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

RUN_SECONDS = 10

#: (name, why) — order is the order the full run executes them in.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("fio_4k_sync", "headline case: 4 KB random overwrite + fsync on MGSP; leaf fast path, metalog, per-element device ops"),
    ("fio_4k_observed", "same op stream with telemetry + flight recorder attached; the cost of observers, sim_digest must match fio_4k_sync"),
    ("fio_2m_seq", "2 MB sequential write + fsync; coarse-grained logging and bulk memoryview copies, small-write changes must not move it"),
    ("fio_mixed_mt", "4 simulated threads, 1 KB random, half reads; sub-leaf valid bits, read merges, MGL locks and ReplayEngine"),
    ("tpcc_db", "TPC-C on the embedded database (WAL) over MGSP, dataset larger than the page cache; db.engine/btree/pager/wal do the host work"),
    ("service_mt", "256 tenants on 2 shards through admission, DRR, async write-back and arrival-staggered replay, mounts inside the pass"),
    ("crash_recover", "run-to-crash, compose image, recover, invariant check on txn-mixed/async; the layers no fio workload touches"),
    ("fio_baselines", "1 KB sequential write + fsync on Ext4-DAX, Libnvmmio, NOVA and MGSP; shared nvm/fsapi/sim cost and the paper's Fig 8 ordering"),
)

#: (name, unit, better, bound) — what the driver reads from the last
#: line. A bound is a share of the parent's median and must cover the
#: spread over ten *different seeds* on the noisiest of the eight
#: workloads (one bound serves all of them), so each is about three
#: times the widest spread any workload showed on this box — see README
#: "Bounds". Two runs of *one* seed agree far closer: SAME_SEED below.
#: The virtual clock's unit is ``sim_us``: simulated microseconds, which
#: for one seed read the same on every run by design.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("host_units_per_op", "units/op", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("sim_ops_per_s", "ops/s", "higher", 0.07),
    ("sim_p50_us", "sim_us", "lower", 0.12),
    ("sim_p99_us", "sim_us", "lower", 0.12),
    ("write_amp", "bytes/byte", "lower", 0.001),
    # 1 + paper_band_error: the contract takes no metric that is 0, and
    # 2 % of 1.0 is the issue's "+0.02 absolute"
    ("paper_band_error_p1", "ratio", "lower", 0.02),
)

#: What two runs of one seed may differ by (ISSUE 11's regression
#: bounds; ``--selfcheck`` enforces them). setup_s may also differ by
#: SETUP_FLOOR_S. Every other end-to-end metric, the failed count and
#: sim_digest must repeat exactly.
SAME_SEED = {"setup_s": 0.25, "host_units_per_op": 0.10, "peak_rss_mb": 0.05}
SETUP_FLOOR_S = 0.1

_NO_BAND = "the paper's Fig 8 bands compare file systems; only fio_baselines runs more than one"
_POOLED = "pooled over four file systems it means nothing; per-FS values are the fs.* layer metrics"
_BLIND = ("Session.latencies_ns is pre-replay and contention-blind (ROADMAP item 1); "
          "defined once completion - arrival exists")
_PER_IMAGE = "an op is a crash image recovered on its own device: no stream to rate, no user bytes to amplify"

#: Cells ISSUE 11 leaves undefined: workload -> {metric: why}. A run
#: prints them as ``null`` with the why. The driver contract wants a
#: non-zero number in every cell of the last line, which therefore
#: carries ``stand_in()`` there; no claim may rest on a stand-in.
UNDEFINED: Dict[str, Dict[str, str]] = {
    name: {"paper_band_error_p1": _NO_BAND} for name, _why in WORKLOADS
}
UNDEFINED["service_mt"].update(sim_p50_us=_BLIND, sim_p99_us=_BLIND)
UNDEFINED["crash_recover"].update(sim_ops_per_s=_PER_IMAGE, write_amp=_PER_IMAGE)
UNDEFINED["fio_baselines"] = {"sim_p50_us": _POOLED, "sim_p99_us": _POOLED, "write_amp": _POOLED}


def stand_in(name: str, defined: Dict[str, float]) -> float:
    """The filler the last line carries in an undefined cell: the
    reciprocal of the defined companion where there is one (so it can
    signal nothing its companion does not), else the constant 1."""
    if name in ("sim_p50_us", "sim_p99_us"):
        return 1e6 / defined["sim_ops_per_s"]
    if name == "sim_ops_per_s":
        return 1e6 / defined["sim_p50_us"]
    return 1.0

#: The layers are this repo's modules, plus the benchmark's own driver.
LAYER_NAMES: Tuple[str, ...] = (
    "fsapi",
    "core.file",
    "core.shadowlog",
    "core.radix",
    "core.metalog",
    "core.locks",
    "core.flusher",
    "core.txn",
    "core.recovery",
    "nvm.device",
    "nvm.cache",
    "nvm.allocator",
    "sim.trace",
    "sim.engine",
    "db.engine",
    "db.btree",
    "db.pager",
    "db.wal",
    "service.admission",
    "service.scheduler",
    "service.service",
    "crashsweep",
    "fs.baselines",
    "bench.driver",
)

#: Exact counts and shares read from the program's public stats objects
#: (delta over the sim window), plus the benchmark's own health numbers.
#: (name, unit, better)
LAYER_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("nvm.device.stores_per_op", "count/op", "lower"),
    ("nvm.device.flush_calls_per_op", "count/op", "lower"),
    ("nvm.device.flushed_lines_per_op", "count/op", "lower"),
    ("nvm.device.fences_per_op", "count/op", "lower"),
    ("nvm.device.loaded_bytes_per_op", "bytes/op", "lower"),
    ("nvm.device.redundant_flushes", "count", "lower"),
    ("nvm.device.redundant_fences", "count", "lower"),
    ("core.shadowlog.fine_commit_share", "ratio", "higher"),
    ("core.shadowlog.coarse_commit_share", "ratio", "higher"),
    ("core.shadowlog.undo_commit_share", "ratio", "lower"),
    ("core.shadowlog.rmw_fill_bytes_per_op", "bytes/op", "lower"),
    ("core.shadowlog.logs_allocated", "count", "lower"),
    ("core.file.fast_path_share", "ratio", "higher"),
    ("core.file.mst_hit_rate", "ratio", "higher"),
    ("core.flusher.epochs", "count", "lower"),
    ("core.flusher.bytes_drained_per_user_byte", "bytes/byte", "lower"),
    ("core.flusher.deferred", "count", "lower"),
    ("nvm.allocator.peak_bytes", "bytes", "lower"),
    ("sim.trace.segments_per_op", "count/op", "lower"),
    ("sim.engine.lock_wait_share", "ratio", "lower"),
    ("sim.engine.io_share", "ratio", "higher"),
    ("sim.engine.blocked_acquires_per_op", "count/op", "lower"),
    ("db.pager.hit_rate", "ratio", "higher"),
    ("db.wal.commits_per_txn", "count/op", "lower"),
    ("service.service.shard_util_min", "ratio", "higher"),
    ("service.service.shard_util_max", "ratio", "higher"),
    ("service.service.lock_wait_ns", "ns", "lower"),
    ("service.service.req_p99_ns", "ns", "lower"),
    ("core.recovery.entries_replayed_per_image", "count/op", "lower"),
    ("core.recovery.log_bytes_written_back_per_image", "bytes/op", "lower"),
    ("crashsweep.events_per_run", "count", "lower"),
    ("crashsweep.run_units_per_image", "units/op", "lower"),
    ("crashsweep.compose_units_per_image", "units/op", "lower"),
    ("crashsweep.check_units_per_image", "units/op", "lower"),
    ("fs.ext4dax.sim_mb_s", "MB/s", "higher"),
    ("fs.libnvmmio.sim_mb_s", "MB/s", "higher"),
    ("fs.nova.sim_mb_s", "MB/s", "higher"),
    ("fs.mgsp.sim_mb_s", "MB/s", "higher"),
    ("fs.ext4dax.write_amp", "bytes/byte", "lower"),
    ("fs.libnvmmio.write_amp", "bytes/byte", "lower"),
    ("fs.nova.write_amp", "bytes/byte", "lower"),
    ("fs.mgsp.write_amp", "bytes/byte", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.host_ops_per_s", "ops/s", "higher"),
    ("bench.unit_ns", "ns", "lower"),
    ("bench.pass_iqr_ratio", "ratio", "lower"),
    ("bench.gc_collections", "count", "lower"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric, in printing order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYER_NAMES:
        out.append((f"{layer}.self_units_per_op", "units/op", "lower"))
        out.append((f"{layer}.calls_per_op", "count/op", "lower"))
    out.extend(LAYER_COUNTS)
    return out


def manifest() -> Dict[str, object]:
    """The BENCHMARK.json document, exactly the builder-contract keys."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }
